import hashlib
import json

import numpy as np
import pytest

import lexner.autodiff as ad
from lexner import checkpoint
from lexner.autodiff import ConfigError, Tape, Tensor
from lexner.corpus import Sentence, Vocab
from lexner.encoders import enumerate_fragments
from lexner.lexicon import (EXACT, INFIX, PREFIX, SUFFIX, Lexicon, Match,
                            SentenceLayout, bucket_count)
from lexner.model import (Model, ModelConfig, SPARSE_TABLES, TrainSettings,
                          _prepare, param_shapes, span_labels, train_model)
from lexner.optim import Adam, DivergenceError
from lexner.synth import make_corpus

import span_reference as ref

SMALL = dict(d_char=8, d_seg=4, d_pos=4, d_lex=10, d_mod=6, k_cut=1,
             max_entity_len=4, char_encoder="baseline",
             fragment_encoder="bow", head_hidden=16, head_layers=1)


def tiny_world(seed=0, **over):
    """A small model over a 2-sentence corpus with a 3-word lexicon."""
    s1 = Sentence(list("abcu"), ["B", "M", "E", "S"], ["NN"] * 3 + ["X"],
                  entities={(0, 2, "PER")})
    s2 = Sentence(list("vabd"), ["S", "B", "E", "S"], ["X", "NN", "NN", "X"],
                  entities={(1, 2, "ORG")})
    lex = Lexicon(["abc", "ab", "bc"])
    vocab = Vocab.build([s1, s2], lex.words)
    cfg = ModelConfig(**{**SMALL, **over})
    model = Model.build(cfg, vocab, np.random.default_rng(seed))
    return model, [s1, s2], lex


class TestModelConfig:
    def test_defaults_validate(self):
        ModelConfig().validate()

    def test_bad_encoder(self):
        with pytest.raises(ConfigError):
            ModelConfig(char_encoder="cnn").validate()

    def test_bad_gamma(self):
        with pytest.raises(ConfigError):
            ModelConfig(gamma=-1.0).validate()

    @pytest.mark.parametrize("over", [
        {"bucket_cap": 0}, {"bucket_cap": -1}, {"char_hidden": 0},
        {"head_layers": -1}, {"char_layers": 0, "char_encoder": "birnn"},
        {"frag_hidden": 0, "fragment_encoder": "birnn"}, {"head_hidden": 0}])
    def test_bad_sizes_rejected(self, over):
        with pytest.raises(ConfigError, match=next(iter(over))):
            ModelConfig(**over).validate()

    def test_derived_dims(self):
        cfg = ModelConfig()
        assert cfg.d_w == 100
        assert cfg.d_t == 2 * cfg.char_hidden
        assert cfg.d_m == cfg.d_lex + cfg.d_mod
        assert cfg.n_mod == 2 * cfg.k_cut + 4
        assert ModelConfig(char_encoder="baseline").d_t == 100


def attention(f, w, mem, row_span, null_rows, null_mask):
    with Tape():
        ctx, weights = ad.memory_attention(Tensor(f), Tensor(w), Tensor(mem),
                                           np.asarray(row_span), Tensor(null_rows),
                                           np.asarray(null_mask))
    return ctx.values, weights


class TestAttend:
    def test_single_row_memory_returns_row(self):
        rng = np.random.default_rng(0)
        mem, nul = rng.normal(size=(1, 3)), rng.normal(size=(2, 3))
        # span 0: one real row; span 1: one null row
        ctx, (p_real, p_null) = attention(
            rng.normal(size=(2, 4)), rng.normal(size=(4, 3)), mem, [0], nul,
            [[False, False], [False, True]])
        assert np.allclose(p_real, [1.0])
        assert np.array_equal(p_null, [[0.0, 0.0], [0.0, 1.0]])
        assert np.allclose(ctx, [mem[0], nul[1]])

    def test_zero_bilinear_gives_column_mean(self):
        rng = np.random.default_rng(1)
        mem, nul = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        mask = np.array([[True, False, True, False], [True, True, True, True]])
        ctx, (p_real, p_null) = attention(
            rng.normal(size=(2, 4)), np.zeros((4, 3)), mem, [0, 0, 0, 1], nul, mask)
        assert np.allclose(p_real, 0.2)
        assert np.allclose(p_null[mask], 0.2)
        assert np.allclose(ctx[0], np.vstack([mem[:3], nul[[0, 2]]]).mean(axis=0))
        assert np.allclose(ctx[1], np.vstack([mem[3:], nul]).mean(axis=0))

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            row_span = np.repeat(np.arange(n), rng.integers(0, 4, size=n))
            mask = rng.random((n, 4)) < 0.5
            mask[:, 0] |= np.bincount(row_span, minlength=n) == 0
            _, (p_real, p_null) = attention(
                rng.normal(size=(n, 6)), rng.normal(size=(6, 4)),
                rng.normal(size=(len(row_span), 4)), row_span,
                rng.normal(size=(4, 4)), mask)
            totals = np.bincount(row_span, p_real, minlength=n) + p_null.sum(axis=1)
            assert np.allclose(totals, 1.0)
            assert np.all(p_real >= 0.0) and np.all(p_null >= 0.0)
            assert np.all(p_null[~mask] == 0.0)


class TestClassify:
    def test_output_is_distribution(self):
        model, sents, lex = tiny_world()
        sent, spans, layout, _ = _prepare(model, sents[0], lex)
        with Tape():
            probs, _ = model.score_spans(sent, layout, spans)
        assert probs.shape == (len(spans), model.config.n_types)
        assert np.allclose(probs.values.sum(axis=1), 1.0)
        assert np.all(probs.values > 0.0)

    def test_matches_batched_path(self):
        model, sents, lex = tiny_world()
        sent = sents[0]
        model.vocab.encode(sent)
        spans = [(0, 2), (1, 1)]
        args = (lex, sent.text, spans, model.config.k_cut, model.config.bucket_cap,
                model.vocab.lex.id)
        with Tape():
            probs, _ = model.score_spans(sent, SentenceLayout.build(*args), spans)
            want, _ = ref.score_spans(model, sent, ref.memory_layouts(*args), spans)
        assert probs.shape == (2, model.config.n_types)
        assert np.allclose(probs.values, want.values, rtol=0, atol=1e-12)


def random_layouts(rng, n_spans, k_cut, cap, lex, fill):
    """Span layouts from random matches: each bucket of a span holds 1 to
    cap + 2 matches with chance ``fill``, so ``fill=1`` leaves no null row
    and overfull buckets are cut to ``cap``. Returns the layouts and the
    number of matches they were made from."""
    def mode_and_k(b):
        if b == 0:
            return EXACT, int(rng.integers(1, 6))
        if b <= k_cut + 1:
            return PREFIX, b if b <= k_cut else k_cut + int(rng.integers(1, 4))
        if b <= 2 * k_cut + 2:
            b -= k_cut + 1
            return SUFFIX, b if b <= k_cut else k_cut + int(rng.integers(1, 4))
        return INFIX, int(rng.integers(1, 6))

    layouts, n_matches = [], 0
    for _ in range(n_spans):
        words = iter(rng.permutation(len(lex)))
        matches = []
        for b in range(bucket_count(k_cut)):
            if rng.random() < fill:
                for _ in range(int(rng.integers(1, cap + 3))):
                    wid = int(next(words))
                    mode, k = mode_and_k(b)
                    matches.append(Match(wid, lex.words[wid], mode, k))
                    assert ref.bucket_of(matches[-1], k_cut) == b
        layouts.append(ref.bucketize(matches, k_cut, lex.freq, lex.word_id.get, cap=cap))
        n_matches += len(matches)
    return layouts, n_matches


class TestBatchedMatchesPerSpan:
    """``Model.score_spans`` against the per-span reference in
    ``span_reference``: forward within 1e-12, every parameter gradient
    within 1e-10 of its largest entry, equal sparse rows and attention."""

    def check(self, model, sent, layouts, spans, dropout=0.0, training=False):
        model.vocab.encode(sent)
        targets = span_labels(sent, spans, model.vocab)
        runs = []
        for batched in (True, False):
            for t in model.params.values():
                t.grad = None
                t.zero_grad()
            rng = np.random.default_rng(7)
            with Tape() as tape:
                if batched:
                    probs, attn = model.score_spans(
                        sent, ref.sentence_layout(layouts, model.config.k_cut), spans,
                        dropout, rng, training, want_attention=True)
                else:
                    probs, attn = ref.score_spans(model, sent, layouts, spans, dropout,
                                                  rng, training, want_attention=True)
                loss = ad.focal_loss_rows(probs, targets, model.alpha(),
                                          model.config.gamma)
                tape.backward(loss)
            grads = {k: np.zeros_like(v.values) if v.grad is None else v.grad.copy()
                     for k, v in model.params.items()}
            masks = {k: model.params[k].touched_rows for k in SPARSE_TABLES}
            touched = {k: set() if m is None else set(np.flatnonzero(m).tolist())
                       for k, m in masks.items()}
            runs.append((probs.values, attn, grads, touched))
        (probs, attn, grads, touched), (want_p, want_a, want_g, want_t) = runs
        np.testing.assert_allclose(probs, want_p, rtol=0, atol=1e-12)
        for k, g in grads.items():
            np.testing.assert_allclose(g, want_g[k], rtol=0,
                                       atol=1e-10 * np.abs(want_g[k]).max(), err_msg=k)
        assert touched == want_t
        for (w, labels), (want_w, want_labels) in zip(attn, want_a, strict=True):
            assert labels == want_labels
            np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-12)

    @staticmethod
    def reference_layouts(model, sent, lex, spans):
        table = model.vocab.lex
        unk = table.id("<unk>")
        return ref.memory_layouts(lex, sent.text, spans, model.config.k_cut,
                                  model.config.bucket_cap, lambda w: table.id(w, unk))

    def world(self, seed, **over):
        train, _, words = make_corpus(seed, n_train=3, n_dev=0)
        lex = Lexicon(words)
        cfg = ModelConfig(**{**SMALL, "char_hidden": 3, "char_layers": 2,
                             "frag_hidden": 3, **over})
        model = Model.build(cfg, Vocab.build(train, lex.words),
                            np.random.default_rng(seed))
        return model, train, lex

    def test_every_encoder_with_and_without_lexicon(self):
        for char in ("baseline", "birnn"):
            for frag in ("bow", "fofe", "birnn"):
                model, sents, lex = self.world(3, char_encoder=char,
                                               fragment_encoder=frag)
                for use_lex in (True, False):
                    sent, spans, layout, _ = _prepare(model, sents[0],
                                                      lex if use_lex else None)
                    assert (len(layout.lex_ids) > 0) == use_lex
                    self.check(model, sent, self.reference_layouts(
                        model, sent, lex if use_lex else None, spans), spans)

    def test_full_buckets_and_cap_truncation(self):
        rng = np.random.default_rng(4)
        for frag in ("bow", "fofe", "birnn"):
            model, sents, lex = self.world(4, fragment_encoder=frag, bucket_cap=2)
            sent = sents[0]
            model.vocab.encode(sent)
            spans = enumerate_fragments(len(sent), model.config.max_entity_len)
            for fill in (1.0, 0.5):
                layouts, n_matches = random_layouts(rng, len(spans),
                                                    model.config.k_cut, 2, lex, fill)
                assert sum(len(l.lex_ids) for l in layouts) < n_matches
                if fill == 1.0:
                    assert not any(len(l.null_buckets) for l in layouts)
                self.check(model, sent, layouts, spans)

    def test_training_dropout_masks_match(self):
        for char in ("baseline", "birnn"):
            model, sents, lex = self.world(5, char_encoder=char, fragment_encoder="fofe")
            sent, spans, _, _ = _prepare(model, sents[1], lex)
            self.check(model, sent, self.reference_layouts(model, sent, lex, spans),
                       spans, dropout=0.3, training=True)


class TestTapeSize:
    def test_nodes_per_sentence_independent_of_length(self):
        # the default config, and it with the BiLSTM fragment encoder,
        # records no tape node per character, LSTM step or span
        train, _, words = make_corpus(0, n_train=20, n_dev=0)
        lex = Lexicon(words)
        vocab = Vocab.build(train, lex.words)
        chars = [c for s in train for c in s.chars]
        segs = [l for s in train for l in s.seg_labels]
        pos = [p for s in train for p in s.pos_tags]
        for over, want in (({}, 27), ({"fragment_encoder": "birnn"}, 31)):
            model = Model.build(ModelConfig(**over), vocab, np.random.default_rng(0))
            counts = []
            for n in (1, 9, 72):
                sent, spans, layout, targets = _prepare(
                    model, Sentence(chars[:n], segs[:n], pos[:n]), lex)
                with Tape() as tape:
                    probs, _ = model.score_spans(sent, layout, spans, dropout_rate=0.3,
                                                 rng=np.random.default_rng(0),
                                                 training=True)
                    ad.focal_loss_rows(probs, targets, model.alpha(), model.config.gamma)
                counts.append(len(tape._records))
            assert counts == [want] * 3, over


class TestFocalValues:
    def run(self, p_t, gamma, alpha=1.0):
        probs = Tensor(np.array([[p_t, 1.0 - p_t]]))
        with Tape():
            loss = ad.focal_loss_rows(probs, np.array([0]),
                                      Tensor(np.array([alpha, alpha])), gamma)
        return float(loss.values)

    def test_half_gamma0_is_ln2(self):
        assert np.isclose(self.run(0.5, 0.0), np.log(2.0))

    def test_half_gamma2_quarter_ln2(self):
        assert np.isclose(self.run(0.5, 2.0), 0.25 * np.log(2.0))

    def test_alpha_scales(self):
        assert np.isclose(self.run(0.5, 0.0, alpha=3.0), 3.0 * np.log(2.0))

    def test_monotone_decreasing_in_pt(self):
        for gamma in (0.0, 0.5, 1.0, 2.0):
            losses = [self.run(p, gamma) for p in np.linspace(0.05, 0.95, 19)]
            assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_downweights_easy_examples(self):
        # relative to gamma=0, the modulating factor shrinks confident
        # examples far more than uncertain ones
        easy = self.run(0.9, 2.0) / self.run(0.9, 0.0)
        hard = self.run(0.1, 2.0) / self.run(0.1, 0.0)
        assert easy < hard


class TestSpanLabels:
    def test_gold_and_none(self):
        model, sents, _ = tiny_world()
        sent = sents[0]
        spans = [(0, 2), (0, 1), (3, 3)]
        labels = span_labels(sent, spans, model.vocab)
        assert labels[0] == model.vocab.types.id("PER")
        assert labels[1] == model.vocab.none_id
        assert labels[2] == model.vocab.none_id


class TestTraining:
    def settings(self, **over):
        base = dict(lr=1e-2, dropout=0.0, epochs=3, batch_size=2,
                    eval_train=True, seed=0)
        base.update(over)
        return TrainSettings(**base)

    def test_single_sentence_overfit(self):
        model, sents, lex = tiny_world(learn_alpha=False, gamma=0.0)
        prepared = _prepare(model, sents[0], lex)
        opt = Adam(model.trainable(), lr=1e-2, sparse=SPARSE_TABLES)
        sent, spans, layout, targets = prepared
        loss_val = None
        for _ in range(200):
            with Tape() as tape:
                probs, _ = model.score_spans(sent, layout, spans)
                loss = ad.scale(
                    ad.focal_loss_rows(probs, targets, model.alpha(), 0.0),
                    1.0 / len(spans))
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
            loss_val = float(loss.values)
        assert loss_val < 1e-2, loss_val

    def test_gamma0_alpha1_equals_cross_entropy(self):
        # per-step losses of the focal objective with gamma=0, alpha=1 match
        # an explicit cross-entropy computation to within accumulation noise
        model, sents, lex = tiny_world(learn_alpha=False, gamma=0.0)
        prepared = [_prepare(model, s, lex) for s in sents]
        for sent, spans, layout, targets in prepared:
            with Tape():
                probs, _ = model.score_spans(sent, layout, spans)
                focal = ad.focal_loss_rows(probs, targets, model.alpha(), 0.0)
            ce = -np.sum(np.log(probs.values[np.arange(len(spans)), targets]))
            assert np.isclose(float(focal.values), ce, atol=1e-9)

    def test_frozen_lexicon_embeddings_constant(self):
        model, sents, lex = tiny_world()
        before = model.params["emb_lex"].values.copy()
        train_model(model, sents, [], lex, self.settings(freeze_lex=True))
        # train_model restores nothing; current params reflect last step
        assert np.array_equal(model.params["emb_lex"].values, before)

    def test_frozen_lexicon_gradient_reset_every_step(self):
        # a frozen table is outside the optimiser: training reads it
        # untracked, so it never gets a gradient buffer or touched rows,
        # and it is a tracked parameter again afterwards
        model, sents, lex = tiny_world()
        emb_lex = model.params["emb_lex"]
        seen = []
        train_model(model, sents, [], lex, self.settings(freeze_lex=True),
                    log_fn=lambda row: seen.append(
                        (emb_lex.grad, emb_lex.touched_rows, emb_lex.tracked)))
        assert seen == [(None, None, False)] * 3
        assert emb_lex.tracked

    def test_frozen_lexicon_tracked_again_after_divergence(self):
        model, sents, lex = tiny_world()
        model.params["head_out_b"].values[:] = np.nan
        with pytest.raises(DivergenceError):
            train_model(model, sents, [], lex, self.settings(freeze_lex=True))
        assert all(p.tracked for p in model.params.values())

    def test_unfrozen_lexicon_embeddings_move(self):
        model, sents, lex = tiny_world()
        before = model.params["emb_lex"].values.copy()
        train_model(model, sents, [], lex, self.settings(freeze_lex=False))
        assert not np.array_equal(model.params["emb_lex"].values, before)

    def test_epoch_log_shape(self):
        model, sents, lex = tiny_world()
        _, rows = train_model(model, sents, [], lex, self.settings(epochs=2))
        assert [r.epoch for r in rows] == [1, 2]
        assert all(r.split == "train" for r in rows)
        assert all(np.isfinite(r.loss) for r in rows)

    def test_dev_split_monitored(self):
        model, sents, lex = tiny_world()
        _, rows = train_model(model, [sents[0]], [sents[1]], lex,
                              self.settings(epochs=2, eval_train=False))
        assert all(r.split == "dev" for r in rows)

    def test_same_seed_same_result(self):
        results = []
        for _ in range(2):
            model, sents, lex = tiny_world(seed=5)
            snap, rows = train_model(model, sents, [], lex, self.settings())
            results.append((snap, [r.loss for r in rows]))
        (snap_a, losses_a), (snap_b, losses_b) = results
        assert losses_a == losses_b
        for k in snap_a:
            assert np.array_equal(snap_a[k], snap_b[k])


class TestSnapshotRestore:
    def test_roundtrip(self):
        model, sents, lex = tiny_world()
        snap = model.snapshot()
        for v in model.params.values():
            v.values += 1.0
        model.restore(snap)
        for k, v in model.params.items():
            assert np.array_equal(v.values, snap[k])


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        model, sents, lex = tiny_world()
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(path, model, extra={"note": "x"})
        loaded, extra = checkpoint.load(path)
        assert extra["note"] == "x"
        assert loaded.config == model.config
        assert loaded.vocab.types.symbols == model.vocab.types.symbols
        for k, v in model.params.items():
            assert np.array_equal(loaded.params[k].values, v.values)

    def test_file_bytes_deterministic(self, tmp_path):
        model, _, _ = tiny_world(seed=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint.save(str(p1), model)
        checkpoint.save(str(p2), model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_build_init_pinned(self, tmp_path):
        # SHA-256 of the checkpoint of a freshly built model with both LSTM
        # encoders at a fixed seed: a refactor of parameter init must draw
        # the same numbers in the same order
        sents = [Sentence(list("abcd"), ["B", "E", "S", "S"], ["N", "V", "N", "N"],
                          entities={(0, 1, "PER")})]
        config = ModelConfig(d_char=4, d_seg=2, d_pos=2, d_lex=3, d_mod=2, char_hidden=3,
                             frag_hidden=2, fragment_encoder="birnn", head_hidden=5,
                             head_layers=1)
        assert (config.char_encoder, config.char_layers) == ("birnn", 2)
        model = Model.build(config, Vocab.build(sents, ["ab", "cd"]),
                            np.random.default_rng(20))
        path = tmp_path / "init.ckpt"
        checkpoint.save(str(path), model)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "07683cfaba82028265a292ba0d93db3ba828a07aa4fce3b496a2ae9e65e8329d"

    def test_failed_save_keeps_old_file(self, tmp_path):
        model, _, _ = tiny_world()
        path = tmp_path / "m.ckpt"
        checkpoint.save(str(path), model)
        old = path.read_bytes()
        # the last tensor cannot be written as float64, so the save fails
        # after the header and the earlier tensors are out
        last = list(model.params)[-1]
        model.params[last].values = np.array(["x"] * model.params[last].values.size)
        with pytest.raises(ValueError):
            checkpoint.save(str(path), model)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_structure_check(self, tmp_path):
        model, _, _ = tiny_world()
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(path, model)
        loaded, _ = checkpoint.load(path)
        want = ModelConfig(**{**SMALL, "d_lex": 99})
        with pytest.raises(ConfigError):
            checkpoint.check_structure(want, loaded.config, {"d_lex"})
        # unmentioned fields are taken from the checkpoint without complaint
        checkpoint.check_structure(want, loaded.config, set())

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ConfigError):
            checkpoint.load(str(p))

    def saved(self, tmp_path):
        """A saved tiny model: (path, model, header dict, tensor bytes)."""
        model, _, _ = tiny_world()
        path = tmp_path / "m.ckpt"
        checkpoint.save(str(path), model)
        _, header, body = path.read_bytes().split(b"\n", 2)
        return path, model, json.loads(header), body

    def write(self, path, header, body):
        text = header if isinstance(header, bytes) else json.dumps(header).encode()
        path.write_bytes(checkpoint.MAGIC + text + b"\n" + body)

    def test_missing_tensor_rejected(self, tmp_path):
        path, model, header, _ = self.saved(tmp_path)
        header["tensors"] = [e for e in header["tensors"] if e["name"] != "attn_w"]
        body = b"".join(v.values.tobytes() for k, v in model.params.items()
                        if k != "attn_w")
        self.write(path, header, body)
        with pytest.raises(ConfigError, match="attn_w"):
            checkpoint.load(str(path))

    def test_misshaped_tensor_rejected(self, tmp_path):
        # same byte count, transposed shape
        path, _, header, body = self.saved(tmp_path)
        entry = next(e for e in header["tensors"] if e["name"] == "head_out_w")
        entry["shape"] = entry["shape"][::-1]
        self.write(path, header, body)
        with pytest.raises(ConfigError, match="head_out_w"):
            checkpoint.load(str(path))

    def test_vocabulary_config_mismatch_rejected(self, tmp_path):
        path, _, header, body = self.saved(tmp_path)
        header["vocab"]["types"].append("EXTRA")
        self.write(path, header, body)
        with pytest.raises(ConfigError, match="n_types"):
            checkpoint.load(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, _, header, body = self.saved(tmp_path)
        self.write(path, header, body + bytes(8))
        with pytest.raises(ConfigError, match="trailing"):
            checkpoint.load(str(path))

    def test_malformed_json_header_rejected(self, tmp_path):
        path, _, header, body = self.saved(tmp_path)
        self.write(path, json.dumps(header).encode()[:-1], body)
        with pytest.raises(ConfigError, match="malformed"):
            checkpoint.load(str(path))

    def test_missing_header_keys_rejected(self, tmp_path):
        for key in ("config", "vocab", "tensors", "extra"):
            path, _, header, body = self.saved(tmp_path)
            del header[key]
            self.write(path, header, body)
            with pytest.raises(ConfigError, match="malformed"):
                checkpoint.load(str(path))

    def test_manifest_is_what_build_makes(self):
        for over in ({}, {"char_encoder": "birnn", "char_layers": 2,
                          "fragment_encoder": "birnn", "head_layers": 2}):
            model, _, _ = tiny_world(**over)
            assert param_shapes(model.config) == {
                k: v.values.shape for k, v in model.params.items()}


class TestSyntheticCorpus:
    def test_shapes_and_types(self):
        train, dev, lex_words = make_corpus(0, n_train=20, n_dev=5)
        assert len(train) == 20 and len(dev) == 5
        for s in train + dev:
            assert s.entities
            for i, j, t in s.entities:
                assert j - i + 1 == 4
                assert t in ("PER", "ORG", "LOC")
        assert len(lex_words) >= 20

    def test_reversed_suffixes_get_different_types(self):
        # type is carried by the suffix word, and a suffix's reversal maps to
        # a different type: order-insensitive encoders cannot separate them
        from lexner.synth import build_wordlists
        rng = np.random.default_rng(0)
        _, suffixes, suffix_type = build_wordlists(rng)
        flipped = 0
        for s in suffixes:
            if s[::-1] in suffix_type and suffix_type[s[::-1]] != suffix_type[s]:
                flipped += 1
        assert flipped == len(suffixes)

    def test_deterministic(self):
        a = make_corpus(3, n_train=5, n_dev=2)
        b = make_corpus(3, n_train=5, n_dev=2)
        assert [s.chars for s in a[0]] == [s.chars for s in b[0]]
        assert a[2] == b[2]
