import numpy as np
import pytest
from hypothesis import given, strategies as st

import lexner.autodiff as ad
from lexner.autodiff import ConfigError, Tape, Tensor
from lexner.encoders import (char_feature_vectors, encode_characters,
                             encode_fragments_birnn, encode_fragments_bow,
                             encode_fragments_fofe, fragment_count, fragment_rows)

import span_reference as ref
from span_reference import enumerate_fragments, lstm_cell


def rand_matrix(rng, n, d):
    return Tensor(rng.normal(size=(n, d)))


class TestFragmentEnumeration:
    def test_count_examples(self):
        assert fragment_count(5, 3) == 12
        assert fragment_count(3, 10) == 6
        assert fragment_count(1, 1) == 1

    def test_count_law_exhaustive(self):
        # the closed form and the model's enumeration agree with direct
        # enumeration for all small (n, m)
        for n in range(1, 51):
            for m in range(1, 51):
                starts, ends = fragment_rows([n], m)
                assert list(zip(starts.tolist(), ends.tolist())) == \
                    enumerate_fragments(n, m)
                assert fragment_count(n, m) == len(starts)

    def test_spans_valid_and_unique(self):
        starts, ends = fragment_rows([6], 3)
        spans = list(zip(starts.tolist(), ends.tolist()))
        assert len(set(spans)) == len(spans)
        for i, j in spans:
            assert 0 <= i <= j < 6
            assert j - i + 1 <= 3


    @given(lengths=st.lists(st.integers(0, 12), max_size=6), m=st.integers(1, 8))
    def test_rows_stack_each_sentence_enumeration(self, lengths, m):
        starts, ends = fragment_rows(lengths, m)
        want, offset = [], 0
        for n in lengths:
            want += [(i + offset, j + offset) for i, j in enumerate_fragments(n, m)]
            offset += n
        assert starts.dtype == ends.dtype == np.intp
        assert list(zip(starts.tolist(), ends.tolist())) == want
        assert fragment_count(np.array(lengths, dtype=np.intp), m).tolist() == \
            [fragment_count(n, m) for n in lengths]

class TestCharFeatures:
    def test_concat_dims(self):
        rng = np.random.default_rng(0)
        ec = Tensor(rng.normal(size=(5, 50)))
        es = Tensor(rng.normal(size=(4, 25)))
        ep = Tensor(rng.normal(size=(3, 25)))
        with Tape():
            w = char_feature_vectors([0, 1], [0, 1], [0, 1], ec, es, ep)
        assert w.shape == (2, 100)
        assert np.array_equal(w.values[1, :50], ec.values[1])
        assert np.array_equal(w.values[1, 50:75], es.values[1])
        assert np.array_equal(w.values[1, 75:], ep.values[1])

    def test_dropout_off_at_inference(self):
        rng = np.random.default_rng(0)
        ec = Tensor(rng.normal(size=(2, 4)))
        es = Tensor(rng.normal(size=(2, 2)))
        ep = Tensor(rng.normal(size=(2, 2)))
        with Tape():
            a = char_feature_vectors([0], [0], [0], ec, es, ep,
                                     dropout_rate=0.0, rng=rng)
        expected = np.concatenate([ec.values[0], es.values[0], ep.values[0]])
        assert np.array_equal(a.values[0], expected)


class TestLSTM:
    def test_init_shapes(self):
        wx, wh, b = lstm_cell(3, 5, np.random.default_rng(0))
        assert wx.shape == (20, 3)
        assert wh.shape == (20, 5)
        assert b.shape == (20,)

    def test_zero_weights_zero_output(self):
        cell = (Tensor(np.zeros((8, 3))), Tensor(np.zeros((8, 2))), Tensor(np.zeros(8)))
        x = rand_matrix(np.random.default_rng(1), 4, 3)
        steps = np.arange(4)[None]
        with Tape():
            states = ad.bilstm_sequence(x, np.stack([steps, steps[:, ::-1]]),
                                        np.stack([steps[0], steps[0]]), cell, cell)
        assert states.shape == (4, 4)
        assert np.all(states.values == 0.0)

    def test_reverse_matches_reversed_input(self):
        # each direction reads its chain's rows by index: over the reversed
        # rows with the two indices swapped, both directions see the same
        # inputs and give the same states
        rng = np.random.default_rng(2)
        fwd, bwd = lstm_cell(3, 4, rng), lstm_cell(3, 4, rng)
        x = rand_matrix(rng, 5, 3)
        right = np.arange(5)[None]
        left = right[:, ::-1]
        read = np.stack([right[0], right[0]])
        with Tape():
            on_x = ad.bilstm_sequence(x, np.stack([right, left]), read, fwd, bwd)
            on_reversed = ad.bilstm_sequence(Tensor(x.values[::-1]), np.stack([left, right]),
                                             read, fwd, bwd)
        assert np.allclose(on_x.values, on_reversed.values)

    def test_reference_step(self):
        # one step against a direct numpy transcription of the gate math
        rng = np.random.default_rng(3)
        wx, wh, b = cell = lstm_cell(2, 3, rng)
        x = rng.normal(size=2)
        with Tape():
            h = ad.bilstm_sequence(Tensor(x[None]), np.zeros((2, 1, 1), dtype=np.intp),
                                   np.zeros((2, 1), dtype=np.intp), cell, cell)
        pre = wx.values @ x + b.values
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        i, f, g, o = sig(pre[:3]), sig(pre[3:6]), np.tanh(pre[6:9]), sig(pre[9:])
        assert np.allclose(h.values[0, :3], o * np.tanh(i * g))
        assert np.array_equal(h.values[0, 3:], h.values[0, :3])

    @given(st.data())
    def test_sequence_matches_per_step_reference(self, data):
        # B tail-padded chains per direction in one op against per-op
        # reference chains that read the same rows: forward within 1e-12,
        # every gradient within rtol 1e-10, padded states unread. Each
        # direction is checked alone, its states weighed by the probe and
        # the other direction's by zero, so that the two directions' parts
        # of x's gradient, each within rtol 1e-10, are not checked by a sum
        # that may cancel
        n_seq = data.draw(st.integers(1, 4), label="chains")
        steps = data.draw(st.integers(1, 5), label="steps")
        lengths = data.draw(st.lists(st.integers(1, steps), min_size=n_seq,
                                     max_size=n_seq), label="lengths")
        n = data.draw(st.integers(1, 6), label="rows")
        d = data.draw(st.integers(1, 6), label="d")
        hid = data.draw(st.integers(1, 9), label="hidden")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        index = rng.integers(0, n, size=(2, n_seq, steps))
        cells = lstm_cell(d, hid, rng), lstm_cell(d, hid, rng)
        for cell in cells:
            cell[2].values[:] = rng.normal(size=4 * hid)
        x = ad.parameter(rng.normal(size=(n, d)))
        params = [x, *cells[0], *cells[1]]
        read = [c * steps + t for c in range(n_seq) for t in range(lengths[c])]
        weights = rng.normal(size=(len(read), 2 * hid))

        def run(batched, probe):
            for p in params:
                p.grad = None
            with Tape() as tape:
                if batched:
                    states = ad.bilstm_sequence(x, index, [read, read], *cells)
                else:
                    states = ad.hconcat(*[ref.stack_rows([
                        h for c in range(n_seq) for h in ref.lstm_run(
                            [ref.lookup(x, k) for k in ix[c, :lengths[c]]], cell)])
                        for ix, cell in zip(index, cells)])
                tape.backward(ref.sum_all(ref.mul(states, probe)))
            return states.values, [p.grad.copy() for p in params]

        for direction in (0, 1):
            probe = ad.constant(weights * (np.arange(2 * hid) // hid == direction))
            got, got_grads = run(True, probe)
            want, want_grads = run(False, probe)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for g, w in zip(got_grads, want_grads, strict=True):
                np.testing.assert_allclose(g, w, rtol=1e-10)

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(0)
        cells = lstm_cell(3, 2, rng), lstm_cell(3, 2, rng)
        x = Tensor(np.zeros((4, 3)))
        read = np.zeros((2, 1), dtype=np.intp)

        def run(x, index, read=read, cells=cells):
            return ad.bilstm_sequence(x, index, read, *cells)

        with pytest.raises(ad.ShapeError, match="incompatible"):
            run(x, np.arange(4)[None])
        with pytest.raises(ad.ShapeError, match="incompatible"):
            run(x, np.zeros((3, 1, 4), dtype=np.intp))
        with pytest.raises(ad.ShapeError, match="incompatible"):
            run(Tensor(np.zeros((4, 2))), np.zeros((2, 1, 4), dtype=np.intp))
        with pytest.raises(ad.ShapeError, match="incompatible"):
            run(x, np.zeros((2, 1, 4), dtype=np.intp),
                cells=(cells[0], lstm_cell(3, 3, rng)))
        with pytest.raises(ad.ShapeError, match="incompatible"):
            run(x, np.zeros((2, 1, 4), dtype=np.intp), read=np.zeros(2, dtype=np.intp))
        with pytest.raises(ad.ShapeError, match="out of range"):
            run(x, np.array([[[0, 4]], [[0, 1]]]))
        with pytest.raises(ad.ShapeError, match="out of range"):
            run(x, np.zeros((2, 1, 4), dtype=np.intp), read=np.array([[0], [4]]))


class TestEncodeCharacters:
    def test_baseline_identity(self):
        w = rand_matrix(np.random.default_rng(0), 3, 4)
        assert encode_characters(w, [], [3]) is w

    def test_birnn_dims(self):
        rng = np.random.default_rng(1)
        layers = [(lstm_cell(4, 3, rng), lstm_cell(4, 3, rng)),
                  (lstm_cell(6, 3, rng), lstm_cell(6, 3, rng))]
        w = rand_matrix(rng, 5, 4)
        with Tape():
            out = encode_characters(w, layers, [5])
        assert out.shape == (5, 6)
        # the top layer's per-step forward and backward states, side by side
        with Tape():
            xs = [Tensor(r) for r in w.values]
            for fwd, bwd in layers:
                xs = [Tensor(np.concatenate([f.values, b.values])) for f, b in
                      zip(ref.lstm_run(xs, fwd), ref.lstm_run(xs, bwd, reverse=True))]
        np.testing.assert_allclose(out.values, np.stack([x.values for x in xs]),
                                   rtol=0, atol=1e-12)


class TestBOW:
    def test_matches_direct_mean(self):
        rng = np.random.default_rng(4)
        t = rand_matrix(rng, 7, 5)
        spans = enumerate_fragments(7, 4)
        with Tape():
            enc = encode_fragments_bow(t, spans)
        assert enc.shape == (len(spans), 5)
        for row, (i, j) in zip(enc.values, spans):
            assert np.allclose(row, t.values[i:j + 1].mean(axis=0), atol=1e-12)

    def test_length_one_is_the_vector(self):
        t = rand_matrix(np.random.default_rng(5), 3, 2)
        with Tape():
            enc = encode_fragments_bow(t, [(0, 2), (1, 1)])
        assert np.array_equal(enc.values[1], t.values[1])

    def test_order_insensitive(self):
        # the mean cannot distinguish a span from its reversal
        rng = np.random.default_rng(6)
        t = rand_matrix(rng, 4, 3)
        rev = Tensor(t.values[::-1])
        with Tape():
            a = encode_fragments_bow(t, [(0, 3)])
            b = encode_fragments_bow(rev, [(0, 3)])
        assert np.allclose(a.values, b.values)


class TestFOFE:
    def direct(self, t, i, j, alpha):
        z = np.zeros(t.shape[1])
        for k in range(i, j + 1):
            z = alpha * z + t.values[k]
        return z

    def test_matches_direct_recurrence(self):
        rng = np.random.default_rng(7)
        t = rand_matrix(rng, 8, 4)
        spans = enumerate_fragments(8, 5)
        with Tape():
            enc = encode_fragments_fofe(t, spans, 0.5)
        for row, (i, j) in zip(enc.values, spans):
            assert np.allclose(row, self.direct(t, i, j, 0.5), atol=1e-10)
            if i == j:
                assert np.array_equal(row, t.values[i])

    def test_many_seeds_incremental_equals_direct(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 10))
            t = rand_matrix(rng, n, 3)
            alpha = float(rng.uniform(0.05, 0.95))
            spans = enumerate_fragments(n, n)
            with Tape():
                enc = encode_fragments_fofe(t, spans, alpha)
            for row, (i, j) in zip(enc.values, spans):
                assert np.allclose(row, self.direct(t, i, j, alpha), atol=1e-10)

    def test_encodes_order(self):
        t = Tensor(np.array([[1.0], [2.0]]))
        with Tape():
            ab = encode_fragments_fofe(t, [(0, 1)], 0.5)
            ba = encode_fragments_fofe(Tensor(t.values[::-1]), [(0, 1)], 0.5)
        assert ab.values[0, 0] == 2.5
        assert ba.values[0, 0] == 2.0

    def test_alpha_range_checked(self):
        t = rand_matrix(np.random.default_rng(0), 2, 2)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                encode_fragments_fofe(t, [(0, 1)], bad)


class TestFragmentBiRNN:
    def direct(self, t, i, j, fwd, bwd):
        xs = [Tensor(row) for row in t.values[i:j + 1]]
        with Tape():
            f = ref.lstm_run(xs, fwd)[-1]
            b = ref.lstm_run(xs, bwd, reverse=True)[0]
        return np.concatenate([f.values, b.values])

    def test_matches_span_local_run(self):
        rng = np.random.default_rng(8)
        fwd, bwd = lstm_cell(3, 4, rng), lstm_cell(3, 4, rng)
        t = rand_matrix(rng, 6, 3)
        spans = enumerate_fragments(6, 4)
        with Tape():
            enc = encode_fragments_birnn(t, spans, fwd, bwd, [6])
        for row, (i, j) in zip(enc.values, spans):
            assert np.allclose(row, self.direct(t, i, j, fwd, bwd), atol=1e-10)

    def test_many_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            fwd, bwd = lstm_cell(2, 3, rng), lstm_cell(2, 3, rng)
            n = int(rng.integers(2, 8))
            t = rand_matrix(rng, n, 2)
            spans = enumerate_fragments(n, n)
            with Tape():
                enc = encode_fragments_birnn(t, spans, fwd, bwd, [n])
            for row, (i, j) in zip(enc.values, spans):
                assert np.allclose(row, self.direct(t, i, j, fwd, bwd), atol=1e-10)

    def test_distinguishes_order(self):
        rng = np.random.default_rng(9)
        fwd, bwd = lstm_cell(2, 3, rng), lstm_cell(2, 3, rng)
        t = rand_matrix(rng, 2, 2)
        with Tape():
            ab = encode_fragments_birnn(t, [(0, 1)], fwd, bwd, [2])
            ba = encode_fragments_birnn(Tensor(t.values[::-1]), [(0, 1)], fwd, bwd, [2])
        assert not np.allclose(ab.values, ba.values)

    def test_output_dim(self):
        rng = np.random.default_rng(10)
        fwd, bwd = lstm_cell(5, 7, rng), lstm_cell(5, 7, rng)
        t = rand_matrix(rng, 3, 5)
        with Tape():
            enc = encode_fragments_birnn(t, [(0, 2)], fwd, bwd, [3])
        assert enc.shape == (1, 14)
