import math
import weakref

import numpy as np
import pytest

from lexner import autodiff as ad

import span_reference as ref


def fd_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        dn = fn()
        flat[i] = orig
        gf[i] = (up - dn) / (2 * h)
    return g


def check_grad(build, params, tol=1e-4):
    """Compare tape gradients of a scalar-valued build() against FD."""
    with ad.Tape() as tape:
        out = build()
        tape.backward(out)
    for p in params:
        fd = fd_grad(lambda: float(build().values), p.values)
        an = p.grad
        # absolute floor keeps FD roundoff on near-zero entries from
        # registering as large relative error
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-5)
        rel = np.abs(fd - an) / denom
        assert rel.max() < tol, f"max rel err {rel.max()}"
        p.zero_grad()


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.constant([[1.0, 0.0], [0.0, 1.0]]),
                         ad.constant([[3.0], [4.0]]))
        assert np.array_equal(out.values, [[3.0], [4.0]])

    def test_hand_arithmetic(self):
        out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
        assert np.array_equal(out.values, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
            ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[1.0], [2.0], [3.0]]))

    def test_grad_of_sum_wrt_left_is_b_rows(self):
        rng = np.random.default_rng(0)
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=(4, 2)))
        with ad.Tape() as tape:
            out = ref.sum_all(ad.matmul(a, b))
            tape.backward(out)
        # each row of d/da is the row-sum vector of b
        expect = np.tile(b.values.sum(axis=1), (3, 1))
        assert np.allclose(a.grad, expect)
        a.zero_grad(), b.zero_grad()
        check_grad(lambda: ref.sum_all(ad.matmul(a, b)), [a, b])


class TestSpanSums:
    def test_matches_coefficient_matrix(self):
        # every run of length 1-4 of 6 rows, in shuffled order, against the
        # runs x rows coefficient matrix the op never builds
        rng = np.random.default_rng(1)
        x = ad.parameter(rng.normal(size=(6, 3)))
        runs = rng.permutation([(i, k) for k in range(1, 5) for i in range(7 - k)])
        starts, lengths = runs.T
        for decay, mean in ((0.3, False), (1.0, True)):
            c = np.zeros((len(runs), 6))
            for s, (i, k) in enumerate(runs):
                c[s, i:i + k] = decay ** np.arange(k - 1, -1, -1) / (k if mean else 1)
            with ad.Tape():
                out = ad.span_sums(x, starts, lengths, decay, mean)
            np.testing.assert_allclose(out.values, c @ x.values, rtol=0, atol=1e-14)
            check_grad(lambda: ref.sum_all(ad.tanh(ad.span_sums(x, starts, lengths,
                                                                decay, mean))), [x])

    def test_no_runs(self):
        x = ad.parameter(np.ones((3, 2)))
        with ad.Tape() as tape:
            out = ad.span_sums(x, [], [])
            tape.backward(ref.sum_all(out))
        assert out.shape == (0, 2)
        assert np.array_equal(x.grad, np.zeros((3, 2)))

    @pytest.mark.parametrize("starts, lengths, match", [
        ([0, 2], [2, 2], "out of range"), ([-1], [1], "out of range"),
        ([0], [0], "out of range"), ([1, 1], [2, 2], "given twice"),
        ([[0]], [[1]], "incompatible"), ([0, 1], [1], "incompatible")])
    def test_bad_runs_rejected(self, starts, lengths, match):
        with pytest.raises(ad.ShapeError, match=match):
            ad.span_sums(ad.constant(np.ones((3, 2))), starts, lengths)


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_rows(ad.constant([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.values, [[1 / 3] * 3], atol=1e-15)

    def test_closed_form(self):
        out = ad.softmax_rows(ad.constant([[math.log(1), math.log(3)]]))
        assert np.allclose(out.values, [[0.25, 0.75]], atol=1e-12)

    def test_overflow_stability(self):
        out = ad.softmax_rows(ad.constant([[1000.0, 0.0], [0.0, -1000.0]]))
        assert np.all(np.isfinite(out.values))
        assert out.values[0, 0] == pytest.approx(1.0)
        assert out.values[1, 0] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.softmax_rows(ad.constant(np.zeros((2, 0))))
        with pytest.raises(ad.ShapeError):
            ad.softmax_rows(ad.constant([1.0, 2.0]))

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(scale=5, size=(int(rng.integers(1, 4)), int(rng.integers(1, 12))))
            p = ad.softmax_rows(ad.constant(x)).values
            assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)
            perm = rng.permutation(x.shape[1])
            assert np.allclose(ad.softmax_rows(ad.constant(x[:, perm])).values, p[:, perm])
            # each row equals the per-vector softmax of the per-span reference
            for row, want in zip(x, p):
                assert np.allclose(ref.softmax(ad.constant(row)).values, want,
                                   rtol=0, atol=1e-15)


class TestConcat:
    def test_default_widths(self):
        parts = [ad.constant(np.zeros((3, 50))), ad.constant(np.zeros((3, 25))),
                 ad.constant(np.zeros((3, 25)))]
        assert ad.hconcat(*parts).shape == (3, 100)

    def test_single_part_identity(self):
        x = ad.constant([[1.0, 2.0]])
        assert np.array_equal(ad.hconcat(x).values, x.values)

    def test_empty_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.hconcat()
        with pytest.raises(ad.ShapeError):
            ad.hconcat(ad.constant(np.zeros((2, 1))), ad.constant(np.zeros((3, 1))))

    def test_slice_sum_backward(self):
        a = ad.parameter([[1.0, 2.0]])
        b = ad.parameter([[3.0, 4.0, 5.0]])
        pick = ad.constant([[0.0, 0.0, 1.0, 1.0, 1.0]])
        with ad.Tape() as tape:
            out = ref.sum_all(ref.mul(ad.hconcat(a, b), pick))
            tape.backward(out)
        assert np.array_equal(a.grad, [[0.0, 0.0]])
        assert np.array_equal(b.grad, [[1.0, 1.0, 1.0]])
        a.zero_grad(), b.zero_grad()
        check_grad(lambda: ref.sum_all(ref.mul(ad.hconcat(a, b), pick)), [a, b])


class TestElementwise:
    def test_values(self):
        assert ad.tanh(ad.constant([0.0])).values[0] == 0.0
        assert ref.sigmoid(ad.constant([0.0])).values[0] == 0.5

    def test_tanh_derivative(self):
        x = ad.parameter([1.0])
        with ad.Tape() as tape:
            out = ref.sum_all(ad.tanh(x))
            tape.backward(out)
        assert x.grad[0] == pytest.approx(1 - math.tanh(1.0) ** 2, abs=1e-6)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ref.add(ad.constant([1.0]), ad.constant([1.0, 2.0]))
        with pytest.raises(ad.ShapeError):
            ref.mul(ad.constant([1.0]), ad.constant([1.0, 2.0]))


class TestDropout:
    def test_rate_zero_identity(self):
        # rate 0 is inference: the input comes back and nothing is drawn
        x = ad.constant([1.0, 2.0])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert ad.dropout(x, 0.0, rng) is x
        assert rng.bit_generator.state == state
        assert ad.dropout(x, 0.0, None) is x

    def test_invalid_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ad.ConfigError):
                ad.dropout(ad.constant([1.0]), rate, None)

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        x = ad.constant(np.ones(100_000))
        out = ad.dropout(x, 0.3, rng)
        assert out.values.mean() == pytest.approx(1.0, abs=0.01)


class TestGradients:
    """FD audit of every differentiable op over random shapes and seeds."""

    def test_all_ops_random(self):
        count = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            x = ad.parameter(rng.normal(size=n))
            y = ad.parameter(rng.normal(size=n))
            a = ad.parameter(rng.normal(size=(n, m)))
            b = ad.parameter(rng.normal(size=(m, n)))
            b_lin = ad.parameter(rng.normal(size=(3, m)))
            bias = ad.parameter(rng.normal(size=3))
            idx = rng.integers(0, n, size=5)
            wx = ad.parameter(rng.normal(size=(4 * n, m)))
            wh = ad.parameter(rng.normal(size=(4 * n, n)))
            b_gate = ad.parameter(rng.normal(size=4 * n))
            a_const = ad.constant(rng.normal(size=(n, m)))
            # a BiLSTM layer of two chains of 3 steps per direction over
            # rows of ``a``; the second chain is padded after its first
            # step and its padded states are unread
            chains = rng.integers(0, n, size=(2, 3))
            seq_probe = rng.normal(size=(4, n))

            def lstm(x):
                states = ad.bilstm_sequence(x, np.stack([chains, back_chains]),
                                            [[0, 1, 2, 3], [3, 0, 2, 1]],
                                            (wx, wh, b_gate), back_cell)
                return ref.sum_all(ref.mul(states, ad.constant(
                    np.hstack([seq_probe, back_probe]))))

            # memory attention of 3 spans over 4 null rows: in ``no_real``
            # span 0 has no real row (none has one at every third seed), in
            # ``no_null`` span 2 has no null row
            d_m = int(rng.integers(1, 4))
            counts = [0, 0, 0] if seed % 3 == 0 else [0, 2, int(rng.integers(1, 4))]
            no_real = np.repeat(np.arange(3), counts)
            no_real_mask = rng.random((3, 4)) < 0.5
            no_real_mask[:, 0] = True
            no_null = np.repeat(np.arange(3), [1, 2, 3])
            no_null_mask = rng.random((3, 4)) < 0.5
            no_null_mask[2] = False
            q_att = ad.parameter(rng.normal(size=(3, d_m)))
            q_const = ad.constant(rng.normal(size=(3, d_m)))
            mem_a = ad.parameter(rng.normal(size=(len(no_real), d_m)))
            mem_b = ad.parameter(rng.normal(size=(len(no_null), d_m)))
            nul = ad.parameter(rng.normal(size=(4, d_m)))
            probe = ad.constant(rng.normal(size=(3, d_m)))
            # distinct runs of rows of ``a``, of lengths 1 to n
            run_len = rng.integers(1, n + 1, size=4)
            run_start = rng.integers(0, n - run_len + 1)
            _, distinct = np.unique(run_start * (n + 1) + run_len, return_index=True)
            run_start, run_len = run_start[distinct], run_len[distinct]

            def attention(q, mem, rows, mask):
                ctx, _ = ad.memory_attention(q, mem, rows, nul, mask)
                return ref.sum_all(ref.mul(ctx, probe))

            # ``a`` split into blocks of 1 and m - 1 columns, each block
            # weighed by its own probe
            split_probe = [ad.constant(rng.normal(size=(n, k))) for k in (1, m - 1)]
            # the BiLSTM's backward direction, drawn after the rest
            back_cell = tuple(ad.parameter(rng.normal(size=t.shape)) for t in (wx, wh, b_gate))
            back_chains = rng.integers(0, n, size=(2, 3))
            back_probe = rng.normal(size=(4, n))

            def split(x):
                parts = ad.split_columns(x, [1, m - 1])
                return ref.sum_all(ad.hconcat(*[ref.mul(part, w) for part, w
                                                in zip(parts, split_probe)]))

            def split_shared(x):
                # ``x`` also feeds a tanh, and each block feeds two ops
                left, right = ad.split_columns(x, [1, m - 1])
                return ref.add(ref.sum_all(ad.tanh(x)), ref.sum_all(ad.hconcat(
                    ref.mul(left, split_probe[0]), ad.tanh(left),
                    ref.mul(right, split_probe[1]), ad.tanh(ad.scale(right, 0.5)))))

            cases = [
                (lambda: ref.sum_all(ref.add(x, y)), [x, y]),
                (lambda: ref.sum_all(ref.sub(x, y)), [x, y]),
                (lambda: ref.sum_all(ref.mul(x, y)), [x, y]),
                (lambda: ref.sum_all(ad.scale(x, 1.7)), [x]),
                (lambda: ref.sum_all(ad.tanh(x)), [x]),
                (lambda: ref.sum_all(ref.sigmoid(x)), [x]),
                (lambda: ref.sum_all(ad.exp(ad.scale(x, 0.3))), [x]),
                (lambda: ref.sum_all(ref.log(ad.exp(x))), [x]),
                (lambda: ref.sum_all(ad.tanh(ad.matmul(a, b))), [a, b]),
                (lambda: ref.sum_all(ad.tanh(ref.matvec(a, ref.vecmat(x, a)))), [a, x]),
                (lambda: ref.sum_all(ref.softmax(ref.mul(x, y))), [x, y]),
                (lambda: ref.sum_all(ad.tanh(ad.linear(
                    a, b_lin, bias))), [a, b_lin, bias]),
                (lambda: ref.sum_all(ad.tanh(ad.linear(a, b_lin))), [a, b_lin]),
                (lambda: ref.sum_all(ad.tanh(ad.linear(
                    a, b_lin, bias, add=ad.linear(a, b_lin)))), [a, b_lin, bias]),
                (lambda: ref.sum_all(ad.tanh(ad.linear(
                    b, ad.scale(b, 0.5), add=ad.matmul(b, a)))), [a, b]),
                (lambda: split(a), [a]),
                (lambda: split_shared(a), [a]),
                (lambda: split_shared(ad.tanh(ad.scale(a, 0.7))), [a]),
                (lambda: ref.sum_all(ad.tanh(ad.hconcat(*ad.split_columns(
                    ad.tanh(a), [m, 0])))), [a]),
                (lambda: ref.sum_all(ref.concat([x, y])), [x, y]),
                (lambda: ref.sum_all(ad.tanh(ref.vslice(ref.concat([x, y]), 1, n + 1))),
                 [x, y]),
                (lambda: ref.sum_all(ref.stack_rows([x, y])), [x, y]),
                (lambda: ref.sum_all(ad.hconcat(a, a)), [a]),
                (lambda: ref.sum_all(ad.tanh(ad.hconcat(a, ad.scale(a, 0.5), a))), [a]),
                (lambda: ref.sum_all(ref.vconcat(a, a)), [a]),
                (lambda: ref.sum_all(ad.softmax_rows(a)), [a]),
                (lambda: ref.sum_all(ad.gather_rows(a, idx)), [a]),
                # the same table gathered twice, so that its gradient is not
                # zero when the second backward adds into it
                (lambda: ref.sum_all(ad.tanh(ad.hconcat(
                    ad.gather_rows(a, idx), ad.gather_rows(a, idx[::-1])))), [a]),
                (lambda: ref.sum_all(ref.lookup(a, 1)), [a]),
                (lambda: attention(q_att, mem_a, no_real, no_real_mask),
                 [q_att, nul] + ([mem_a] if len(no_real) else [])),
                (lambda: attention(q_att, mem_b, no_null, no_null_mask),
                 [q_att, mem_b, nul]),
                (lambda: attention(q_const, mem_a, no_real, no_real_mask),
                 [nul] + ([mem_a] if len(no_real) else [])),
                (lambda: lstm(a), [a, wx, wh, b_gate, *back_cell]),
                (lambda: ref.sum_all(ad.tanh(ad.span_sums(a, run_start, run_len, 0.6))),
                 [a]),
                (lambda: ref.sum_all(ad.tanh(ad.span_sums(a, run_start, run_len,
                                                          mean=True))), [a]),
                (lambda: lstm(a_const), [wx, wh, b_gate, *back_cell]),
            ]
            for build, params in cases:
                check_grad(build, params)
                count += 1
            assert a_const.grad is None
            assert q_const.grad is None
        assert count >= 100

    def test_bilstm_sequence_backward_reads_operand_copies(self):
        # operands changed in place after the forward leave the gradients
        # of the forward that was recorded
        index = np.array([[[0, 2, 1], [1, 1, 0]], [[2, 0, 0], [1, 2, 1]]])
        read = np.array([[0, 1, 2, 3, 4, 5], [5, 3, 4, 0, 2, 1]])

        def grads(mutate):
            rng = np.random.default_rng(5)
            ops = [ad.parameter(rng.normal(size=s))
                   for s in ((3, 3), (8, 3), (8, 2), 8, (8, 3), (8, 2), 8)]
            probe = ad.constant(rng.normal(size=(6, 4)))
            with ad.Tape() as tape:
                out = ref.sum_all(ref.mul(ad.bilstm_sequence(
                    ops[0], index, read, ops[1:4], ops[4:]), probe))
                if mutate:
                    for t in ops:
                        t.values += 1.0
                tape.backward(out)
            return [t.grad for t in ops]

        for a, b in zip(grads(False), grads(True)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("lengths, hid", [([7], 4), ([5, 1, 3], 4), ([9], 128)])
    def test_bilstm_sequence_bytes_equal_the_step_loop(self, lengths, hid):
        # each direction of the one-loop op does the step loop's sums of
        # one direction alone in its order: the states and every gradient
        # are the bytes of the reference loop run once per direction, its
        # states gathered and set side by side, with chains padded at
        # their tails and two states read twice; hidden size 128 is the
        # character BiLSTM's default
        rng = np.random.default_rng(len(lengths))
        steps = max(lengths)
        index = np.array([[rng.integers(0, 6, size=n).tolist() + [0] * (steps - n)
                           for n in lengths] for _ in range(2)])
        rows = [c * steps + t for c, n in enumerate(lengths) for t in range(n)]
        read = np.array([rows + rows[:2], rows[::-1] + rows[-2:]])
        probe = ad.constant(rng.normal(size=(read.shape[1], 2 * hid)))
        cell = ((4 * hid, 5), (4 * hid, hid), 4 * hid)
        values = [rng.normal(size=s) for s in ((6, 5), *cell, *cell)]

        def one_loop(x, fwd, bwd):
            return ad.bilstm_sequence(x, index, read, fwd, bwd)

        def per_direction(x, fwd, bwd):
            return ad.hconcat(*[ad.gather_rows(ref.lstm_sequence(x, ix, *cell), r)
                                for ix, cell, r in zip(index, (fwd, bwd), read)])

        runs = []
        for op in (one_loop, per_direction):
            ops = [ad.parameter(v) for v in values]
            with ad.Tape() as tape:
                states = op(ops[0], ops[1:4], ops[4:])
                tape.backward(ref.sum_all(ref.mul(states, probe)))
            runs.append([states.values.tobytes()] + [t.grad.tobytes() for t in ops])
        assert runs[0] == runs[1]

    def test_memory_attention_backward_reads_operand_copies(self):
        row_span = np.array([0, 0, 1, 2, 2, 2])
        null_mask = np.array([[True, False, True], [False, True, True],
                              [False, False, False]])

        def grads(mutate):
            rng = np.random.default_rng(6)
            ops = [ad.parameter(rng.normal(size=s)) for s in ((3, 2), (6, 2), (3, 2))]
            probe = ad.constant(rng.normal(size=(3, 2)))
            q, mem, nul = ops
            with ad.Tape() as tape:
                ctx, _ = ad.memory_attention(q, mem, row_span, nul, null_mask)
                out = ref.sum_all(ref.mul(ctx, probe))
                if mutate:
                    for t in ops:
                        t.values += 1.0
                tape.backward(out)
            return [t.grad for t in ops]

        for a, b in zip(grads(False), grads(True)):
            assert np.array_equal(a, b)

    def test_memory_attention_rejects_bad_layouts(self):
        q = ad.constant(np.ones((2, 2)))
        mem, nul = ad.constant(np.ones((2, 2))), ad.constant(np.ones((4, 2)))
        mask = np.ones((2, 4), dtype=bool)
        with pytest.raises(ad.ShapeError, match="sorted"):
            ad.memory_attention(q, mem, np.array([1, 0]), nul, mask)
        with pytest.raises(ad.ShapeError, match="no memory row"):
            ad.memory_attention(q, mem, np.array([0, 0]), nul,
                                np.array([[True] * 4, [False] * 4]))
        with pytest.raises(ad.ShapeError, match="incompatible"):
            ad.memory_attention(q, mem, np.array([0]), nul, mask)
        with pytest.raises(ad.ShapeError, match="incompatible"):
            ad.memory_attention(ad.constant(np.ones((2, 3))), mem, np.array([0, 1]),
                                nul, mask)

    def test_focal_loss_grad(self):
        rng = np.random.default_rng(3)
        for gamma in (0.0, 0.5, 1.0, 2.0):
            logits = ad.parameter(rng.normal(size=(4, 3)))
            alog = ad.parameter(rng.normal(scale=0.2, size=3))
            targets = rng.integers(0, 3, size=4)
            check_grad(
                lambda: ad.focal_loss_rows(ad.softmax_rows(logits), targets,
                                           ad.exp(alog), gamma),
                [logits, alog])

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_focal_loss_alpha_grad_equals_add_at(self, gamma):
        # forty rows over three classes: each class's terms added in row
        # order, the bytes of np.add.at into a zero gradient
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=40)
        targets = rng.integers(0, 3, size=40)
        alpha = ad.parameter(rng.uniform(0.5, 2.0, size=3))
        with ad.Tape() as tape:
            tape.backward(ad.focal_loss_rows(ad.constant(probs), targets, alpha, gamma))
        pt = probs[np.arange(40), targets]
        want = np.zeros(3)
        np.add.at(want, targets, -(1.0 - pt) ** gamma * np.log(pt))
        assert alpha.grad.tobytes() == want.tobytes()


def attention_reference(q, mem, nul, row_span, null_mask, probe):
    """``memory_attention`` span by span with ``ref.attend``: each span's
    memory is its real rows and then its null rows, and its query the
    identity bilinear of its row of ``q``. Returns the probe-weighted sum
    of the contexts and each span's weights."""
    eye = ad.constant(np.eye(q.shape[1]))
    total, weights = None, []
    for s in range(q.shape[0]):
        parts = [ad.gather_rows(table, rows) for table, rows in
                 ((mem, np.flatnonzero(row_span == s)), (nul, np.flatnonzero(null_mask[s])))
                 if len(rows)]
        memory = ref.vconcat(*parts) if len(parts) == 2 else parts[0]
        ctx, w = ref.attend(ref.lookup(q, s), memory, eye)
        weights.append(w.values)
        term = ref.sum_all(ref.mul(ctx, ad.constant(probe[s])))
        total = term if total is None else ref.add(total, term)
    return total, weights


class TestMemoryAttention:
    @pytest.mark.parametrize("k_cut, cap", [(1, 2), (2, 8)])
    def test_matches_per_span_reference(self, k_cut, cap):
        # spans with no real row, one, a bucket at ``cap``, five, more than
        # the 8 rows of numpy's pairwise block, and every bucket at
        # ``cap`` (no null row), in a shuffled order
        n_null = 2 * k_cut + 4
        rng = np.random.default_rng(cap)
        counts = rng.permutation([0, 0, 1, cap, 5, 9, n_null * cap, 3, 2, 1, 0, 6])
        row_span = np.repeat(np.arange(len(counts)), counts)
        null_mask = rng.random((len(counts), n_null)) < 0.6
        null_mask[counts == 0, 0] = True
        null_mask[counts == n_null * cap] = False
        d = 5
        ops = [ad.parameter(rng.normal(size=s))
               for s in ((len(counts), d), (len(row_span), d), (n_null, d))]
        probe = rng.normal(size=(len(counts), d))
        runs = []
        for batched in (True, False):
            for t in ops:
                t.zero_grad()
            with ad.Tape() as tape:
                if batched:
                    ctx, (p_real, p_null) = ad.memory_attention(ops[0], ops[1], row_span,
                                                                ops[2], null_mask)
                    out = ref.sum_all(ref.mul(ctx, ad.constant(probe)))
                    weights = [np.concatenate([p_real[row_span == s], p_null[s, mask]])
                               for s, mask in enumerate(null_mask)]
                else:
                    out, weights = attention_reference(*ops, row_span, null_mask, probe)
                tape.backward(out)
            runs.append((float(out.values), weights, [t.grad.copy() for t in ops]))
        (got, weights, grads), (want, want_weights, want_grads) = runs
        assert got == pytest.approx(want, rel=1e-13)
        for w, want_w in zip(weights, want_weights, strict=True):
            np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-15)
        for g, want_g in zip(grads, want_grads):
            np.testing.assert_allclose(g, want_g, rtol=1e-12, atol=1e-14)

    def test_spans_score_the_same_in_a_larger_batch(self):
        # a span over more than 8 rows, numpy's pairwise block, among three
        # spans and among four with a longer run: the same weights and the
        # same context bytes
        rng = np.random.default_rng(3)
        n_null, d = 6, 4
        row_span = np.repeat(np.arange(4), [9, 0, 2, 12])
        null_mask = rng.random((4, n_null)) < 0.7
        null_mask[1, 0] = True
        q, mem, nul = (rng.normal(size=s) for s in ((4, d), (23, d), (n_null, d)))
        runs = [ad.memory_attention(ad.constant(q[:n]), ad.constant(mem[:len(rows)]), rows,
                                    ad.constant(nul), null_mask[:n])
                for n, rows in ((3, row_span[:11]), (4, row_span))]
        (ctx, (p_real, p_null)), (all_ctx, (all_real, all_null)) = runs
        assert np.array_equal(p_real, all_real[:11])
        assert np.array_equal(p_null, all_null[:3])
        assert ctx.values.tobytes() == all_ctx.values[:3].tobytes()


class TestGatherRows:
    @pytest.mark.parametrize("shape", [(3, 4), (40, 4), (5, 0)])
    def test_backward_equals_add_at(self, shape):
        # repeated indices into a table with fewer rows than are gathered,
        # one with more, and one of no columns: the same bytes as np.add.at
        # into a zero gradient, and the touched rows of the gather
        rng = np.random.default_rng(shape[0])
        idx = rng.integers(0, shape[0], size=12)
        idx[:3] = idx[3]
        table = ad.parameter(rng.normal(size=shape))
        probe = rng.normal(size=(12, shape[1]))
        with ad.Tape() as tape:
            tape.backward(ref.sum_all(ref.mul(ad.gather_rows(table, idx),
                                              ad.constant(probe))))
        want = np.zeros(shape)
        np.add.at(want, idx, probe)
        assert table.grad.tobytes() == want.tobytes()
        assert np.array_equal(np.flatnonzero(table.touched_rows), np.unique(idx))

    @pytest.mark.parametrize("n_rows", [3, 40])
    def test_table_gathered_twice(self, n_rows):
        # the second backward adds into a gradient the first left non-zero
        rng = np.random.default_rng(n_rows)
        picks = [rng.integers(0, n_rows, size=k) for k in (12, 7)]
        probes = [rng.normal(size=(len(p), 4)) for p in picks]
        table = ad.parameter(rng.normal(size=(n_rows, 4)))
        with ad.Tape() as tape:
            terms = [ref.sum_all(ref.mul(ad.gather_rows(table, p), ad.constant(w)))
                     for p, w in zip(picks, probes)]
            tape.backward(ref.add(*terms))
        want = np.zeros((n_rows, 4))
        for p, w in zip(picks[::-1], probes[::-1]):   # backward runs in reverse
            np.add.at(want, p, w)
        np.testing.assert_allclose(table.grad, want, rtol=1e-15, atol=1e-15)
        assert np.array_equal(np.flatnonzero(table.touched_rows),
                              np.unique(np.concatenate(picks)))


class TestDeterminism:
    def test_bit_identical_replay(self):
        def run():
            rng = np.random.default_rng(7)
            x = ad.parameter(rng.normal(size=(6, 3)))
            w = ad.parameter(rng.normal(size=(6, 6)))
            with ad.Tape() as tape:
                out = ref.sum_all(
                    ad.softmax_rows(ad.matmul(w, ad.dropout(
                        ad.tanh(x), 0.3, np.random.default_rng(1)))))
                tape.backward(out)
            return out.values.copy(), x.grad.copy(), w.grad.copy()

        a = run()
        b = run()
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


class TestGradientLifetime:
    """A gradient buffer exists from its first write; backward consumes the
    tape, freeing each node once it has run."""

    def test_first_write_leaves_no_negative_zero(self):
        # a first write stores g + 0.0, as adding g into zeros would: a
        # stored copy of g would keep the sign bit of -0.0
        x = ad.parameter(3.0)
        with ad.Tape() as tape:
            out = ad.scale(x, -0.0)
            tape.backward(out)
        assert x.grad == 0.0 and not np.signbit(x.grad)

    def test_hconcat_part_gradient_owns_its_memory(self):
        a = ad.parameter([[1.0, 2.0]])
        b = ad.parameter([[3.0]])
        with ad.Tape() as tape:
            joined = ad.hconcat(a, b)
            out = ref.sum_all(ref.mul(joined, ad.constant([[1.0, 2.0, 3.0]])))
            tape.backward(out)
        assert np.array_equal(a.grad, [[1.0, 2.0]])
        assert not np.shares_memory(a.grad, joined.grad)
        assert not np.shares_memory(b.grad, joined.grad)

    def test_parameter_behind_an_unused_output_gets_zeros(self):
        w = ad.parameter([[1.0, -2.0]])
        v = ad.parameter([4.0])
        with ad.Tape() as tape:
            ad.tanh(w)
            out = ref.sum_all(ad.scale(v, 2.0))
            tape.backward(out)
        assert isinstance(w.grad, np.ndarray)
        assert np.array_equal(w.grad, [[0.0, 0.0]])
        assert np.array_equal(v.grad, [2.0])

    def test_backward_frees_each_node_before_running_earlier_ones(self):
        x = ad.parameter([1.0, 2.0])
        with ad.Tape() as tape:
            out = ref.sum_all(ad.tanh(x))
        assert len(tape._records) == 2
        later = weakref.ref(tape._records[1][1])
        first, run_first = tape._records[0]
        freed = []

        def probe():
            freed.append(later() is None)
            run_first()
        tape._records[0] = (first, probe)
        tape.backward(out)
        assert freed == [True]
        assert tape._records == []
        assert x.grad == pytest.approx(1.0 - np.tanh([1.0, 2.0]) ** 2)

    def test_tape_is_single_use(self):
        x = ad.parameter([1.0, 2.0])
        with ad.Tape() as tape:
            out = ref.sum_all(ad.tanh(x))
            tape.backward(out)
            grad = x.grad.copy()
            with pytest.raises(RuntimeError, match="single-use"):
                tape.backward(out)
        assert np.array_equal(x.grad, grad)

    def test_tape_without_backward_keeps_its_records(self):
        x = ad.parameter([1.0])
        with ad.Tape() as tape:
            ref.sum_all(ad.tanh(x))
        assert len(tape._records) == 2
        assert x.grad is None
