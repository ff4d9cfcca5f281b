import math

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
            ad.add(ad.constant([1.0]), ad.constant([1.0, 2.0]))
        with pytest.raises(ad.ShapeError):
            ref.mul(ad.constant([1.0]), ad.constant([1.0, 2.0]))


class TestDropout:
    def test_rate_zero_identity(self):
        x = ad.constant([1.0, 2.0])
        out = ad.dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert np.array_equal(out.values, x.values)

    def test_inference_identity(self):
        x = ad.constant([1.0, 2.0])
        out = ad.dropout(x, 0.3, None, training=False)
        assert out is x

    def test_invalid_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ad.ConfigError):
                ad.dropout(ad.constant([1.0]), rate, None, training=False)

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        x = ad.constant(np.ones(100_000))
        out = ad.dropout(x, 0.3, rng, training=True)
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
            # two LSTM chains of 3 steps over rows of ``a``; the second is
            # padded after its first step and its padded states are unread
            chains = rng.integers(0, n, size=(2, 3))
            seq_probe = ad.constant(rng.normal(size=(4, n)))

            def lstm(x):
                states = ad.lstm_sequence(x, chains, wx, wh, b_gate)
                return ref.sum_all(ref.mul(ad.gather_rows(states, [0, 1, 2, 3]),
                                           seq_probe))

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
            f_att = ad.parameter(rng.normal(size=(3, m)))
            f_const = ad.constant(rng.normal(size=(3, m)))
            w_att = ad.parameter(rng.normal(size=(m, d_m)))
            mem_a = ad.parameter(rng.normal(size=(len(no_real), d_m)))
            mem_b = ad.parameter(rng.normal(size=(len(no_null), d_m)))
            nul = ad.parameter(rng.normal(size=(4, d_m)))
            probe = ad.constant(rng.normal(size=(3, d_m)))

            def attention(f, mem, rows, mask):
                ctx, _ = ad.memory_attention(f, w_att, mem, rows, nul, mask)
                return ref.sum_all(ref.mul(ctx, probe))

            cases = [
                (lambda: ref.sum_all(ad.add(x, y)), [x, y]),
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
                (lambda: ref.sum_all(ref.concat([x, y])), [x, y]),
                (lambda: ref.sum_all(ad.tanh(ref.vslice(ref.concat([x, y]), 1, n + 1))),
                 [x, y]),
                (lambda: ref.sum_all(ref.stack_rows([x, y])), [x, y]),
                (lambda: ref.sum_all(ad.hconcat(a, a)), [a]),
                (lambda: ref.sum_all(ad.tanh(ad.hconcat(a, ad.scale(a, 0.5), a))), [a]),
                (lambda: ref.sum_all(ref.vconcat(a, a)), [a]),
                (lambda: ref.sum_all(ad.softmax_rows(a)), [a]),
                (lambda: ref.sum_all(ad.gather_rows(a, idx)), [a]),
                (lambda: ref.sum_all(ref.lookup(a, 1)), [a]),
                (lambda: attention(f_att, mem_a, no_real, no_real_mask),
                 [f_att, w_att, nul] + ([mem_a] if len(no_real) else [])),
                (lambda: attention(f_att, mem_b, no_null, no_null_mask),
                 [f_att, w_att, mem_b, nul]),
                (lambda: attention(f_const, mem_a, no_real, no_real_mask),
                 [w_att, nul] + ([mem_a] if len(no_real) else [])),
                (lambda: lstm(a), [a, wx, wh, b_gate]),
                (lambda: lstm(a_const), [wx, wh, b_gate]),
            ]
            for build, params in cases:
                check_grad(build, params)
                count += 1
            assert a_const.grad is None
            assert f_const.grad is None
        assert count >= 100

    def test_lstm_sequence_backward_reads_operand_copies(self):
        # operands changed in place after the forward leave the gradients
        # of the forward that was recorded
        index = np.array([[0, 2, 1], [1, 1, 0]])

        def grads(mutate):
            rng = np.random.default_rng(5)
            ops = [ad.parameter(rng.normal(size=s)) for s in ((3, 3), (8, 3), (8, 2), 8)]
            probe = ad.constant(rng.normal(size=(6, 2)))
            with ad.Tape() as tape:
                out = ref.sum_all(ref.mul(ad.lstm_sequence(ops[0], index, *ops[1:]), probe))
                if mutate:
                    for t in ops:
                        t.values += 1.0
                tape.backward(out)
            return [t.grad for t in ops]

        for a, b in zip(grads(False), grads(True)):
            assert np.array_equal(a, b)

    def test_memory_attention_backward_reads_operand_copies(self):
        row_span = np.array([0, 0, 1, 2, 2, 2])
        null_mask = np.array([[True, False, True], [False, True, True],
                              [False, False, False]])

        def grads(mutate):
            rng = np.random.default_rng(6)
            ops = [ad.parameter(rng.normal(size=s))
                   for s in ((3, 4), (4, 2), (6, 2), (3, 2))]
            probe = ad.constant(rng.normal(size=(3, 2)))
            f, w, mem, nul = ops
            with ad.Tape() as tape:
                ctx, _ = ad.memory_attention(f, w, mem, row_span, nul, null_mask)
                out = ref.sum_all(ref.mul(ctx, probe))
                if mutate:
                    for t in ops:
                        t.values += 1.0
                tape.backward(out)
            return [t.grad for t in ops]

        for a, b in zip(grads(False), grads(True)):
            assert np.array_equal(a, b)

    def test_memory_attention_rejects_bad_layouts(self):
        f, w = ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2)))
        mem, nul = ad.constant(np.ones((2, 2))), ad.constant(np.ones((4, 2)))
        mask = np.ones((2, 4), dtype=bool)
        with pytest.raises(ad.ShapeError, match="sorted"):
            ad.memory_attention(f, w, mem, np.array([1, 0]), nul, mask)
        with pytest.raises(ad.ShapeError, match="no memory row"):
            ad.memory_attention(f, w, mem, np.array([0, 0]), nul,
                                np.array([[True] * 4, [False] * 4]))
        with pytest.raises(ad.ShapeError, match="incompatible"):
            ad.memory_attention(f, w, mem, np.array([0]), nul, mask)

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


class TestDeterminism:
    def test_bit_identical_replay(self):
        def run():
            rng = np.random.default_rng(7)
            x = ad.parameter(rng.normal(size=(6, 3)))
            w = ad.parameter(rng.normal(size=(6, 6)))
            with ad.Tape() as tape:
                out = ref.sum_all(
                    ad.softmax_rows(ad.matmul(w, ad.dropout(
                        ad.tanh(x), 0.3, np.random.default_rng(1), True))))
                tape.backward(out)
            return out.values.copy(), x.grad.copy(), w.grad.copy()

        a = run()
        b = run()
        for u, v in zip(a, b):
            assert np.array_equal(u, v)
