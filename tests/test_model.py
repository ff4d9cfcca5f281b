import functools
import hashlib
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lexner.autodiff as ad
from lexner import checkpoint, decode
from lexner.autodiff import ConfigError, Tape, Tensor
from lexner.corpus import Sentence, Vocab
from lexner.encoders import fragment_rows
from lexner.lexicon import (EXACT, INFIX, PREFIX, SUFFIX, Lexicon, Match,
                            SentenceLayout, bucket_count)
from lexner.model import (Batch, Model, ModelConfig, SPARSE_TABLES, TrainSettings, _prepare,
                          _score, param_shapes, prepare_corpus, score_corpus, train_model)
from lexner.optim import Adam, DivergenceError
from lexner.synth import make_corpus

import span_reference as ref
from test_acceptance import OVERFIT_CONFIG

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

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ConfigError, match="gamma"):
            ModelConfig(gamma=gamma).validate()

    @pytest.mark.parametrize("over", [
        {"bucket_cap": 0}, {"bucket_cap": -1}, {"char_hidden": 0},
        {"head_layers": -1}, {"char_layers": 0, "char_encoder": "birnn"},
        {"frag_hidden": 0, "fragment_encoder": "birnn"}, {"head_hidden": 0},
        {"d_char": -3}, {"d_seg": -1}, {"d_pos": -1}, {"d_lex": -1}, {"d_mod": -2},
        {"d_lex": 0, "d_mod": 0}, {"d_char": 0, "d_seg": 0, "d_pos": 0}])
    def test_bad_sizes_rejected(self, over):
        with pytest.raises(ConfigError, match=next(iter(over))):
            ModelConfig(**over).validate()

    @pytest.mark.parametrize("over", [{"d_seg": 0, "d_pos": 0}, {"d_lex": 0},
                                      {"d_mod": 0}])
    def test_single_zero_width_scores(self, over):
        model, sents, lex = tiny_world(**over)
        sent, spans, layout, _ = _prepare(model, sents[0], lex)
        with Tape():
            probs, _ = model.score_spans(sent, layout, spans)
        assert np.allclose(probs.values.sum(axis=1), 1.0)

    def test_derived_dims(self):
        cfg = ModelConfig()
        assert cfg.d_w == 100
        assert cfg.d_t == 2 * cfg.char_hidden
        assert cfg.d_m == cfg.d_lex + cfg.d_mod
        assert cfg.n_mod == 2 * cfg.k_cut + 4
        assert ModelConfig(char_encoder="baseline").d_t == 100


def attention(q, mem, row_span, null_rows, null_mask):
    with Tape():
        ctx, weights = ad.memory_attention(Tensor(q), Tensor(mem), np.asarray(row_span),
                                           Tensor(null_rows), np.asarray(null_mask))
    return ctx.values, weights


class TestAttend:
    def test_single_row_memory_returns_row(self):
        rng = np.random.default_rng(0)
        mem, nul = rng.normal(size=(1, 3)), rng.normal(size=(2, 3))
        # span 0: one real row; span 1: one null row
        ctx, (p_real, p_null) = attention(
            rng.normal(size=(2, 3)), mem, [0], nul, [[False, False], [False, True]])
        assert np.allclose(p_real, [1.0])
        assert np.array_equal(p_null, [[0.0, 0.0], [0.0, 1.0]])
        assert np.allclose(ctx, [mem[0], nul[1]])

    def test_zero_bilinear_gives_column_mean(self):
        rng = np.random.default_rng(1)
        mem, nul = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        mask = np.array([[True, False, True, False], [True, True, True, True]])
        # a zero query, as a zero bilinear gives it
        ctx, (p_real, p_null) = attention(np.zeros((2, 3)), mem, [0, 0, 0, 1], nul, mask)
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
                rng.normal(size=(n, 4)), rng.normal(size=(len(row_span), 4)), row_span,
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
        assert probs.shape == (len(spans), len(model.vocab.types))
        assert np.allclose(probs.values.sum(axis=1), 1.0)
        assert np.all(probs.values > 0.0)

    def test_matches_batched_path(self):
        model, sents, lex = tiny_world()
        sent = sents[0]
        model.vocab.encode(sent)
        spans = [(0, 2), (1, 1)]
        cfg, lex_id = model.config, model.vocab.lex.id
        starts, ends = np.array(spans).T
        layout = SentenceLayout.build_corpus(lex, [sent.text], starts, ends, cfg.k_cut,
                                             cfg.bucket_cap, lex_id)
        with Tape():
            probs, _ = model.score_spans(sent, layout, spans)
            want, _ = ref.score_spans(model, sent, ref.memory_layouts(
                lex, sent.text, spans, cfg.k_cut, cfg.bucket_cap, lex_id), spans)
        assert probs.shape == (2, len(model.vocab.types))
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
    """``Model.score_batch`` against the per-span reference in
    ``span_reference``, which pools and then projects: forward within
    1e-12, every parameter gradient within 1e-10 of its largest entry,
    equal sparse rows and attention."""

    def check(self, model, items, dropout=0.0):
        """``items`` holds (sentence, per-span layouts, spans) of each
        sentence of one batch."""
        k_cut = model.config.k_cut
        prepared = []
        for sent, layouts, spans in items:
            model.vocab.encode(sent)
            prepared.append((sent, spans, ref.sentence_layout(layouts, k_cut),
                             ref.span_labels(sent, spans, model.vocab)))
        batch = ref.stack_prepared(prepared)
        runs = []
        for batched in (True, False):
            for t in model.params.values():
                t.grad = None
                t.zero_grad()
            rng = np.random.default_rng(7)
            with Tape() as tape:
                if batched:
                    probs, weights = model.score_batch(batch, dropout, rng)
                    attn = batch.layout.attention_rows(*weights, k_cut)
                    loss = ad.focal_loss_rows(probs, batch.targets, model.alpha(),
                                              model.config.gamma)
                    probs = probs.values
                else:
                    losses, probs, attn = [], [], []
                    for (sent, layouts, spans), (*_, targets) in zip(items, prepared):
                        p, a = ref.score_spans(model, sent, layouts, spans, dropout, rng)
                        losses.append(ad.focal_loss_rows(p, targets, model.alpha(),
                                                         model.config.gamma))
                        probs.append(p.values)
                        attn += a
                    loss = functools.reduce(ref.add, losses)
                    probs = np.vstack(probs)
                tape.backward(loss)
            grads = {k: np.zeros_like(v.values) if v.grad is None else v.grad.copy()
                     for k, v in model.params.items()}
            masks = {k: model.params[k].touched_rows for k in SPARSE_TABLES}
            touched = {k: set() if m is None else set(np.flatnonzero(m).tolist())
                       for k, m in masks.items()}
            runs.append((probs, attn, grads, touched))
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
                    self.check(model, [(sent, self.reference_layouts(
                        model, sent, lex if use_lex else None, spans), spans)])

    def test_full_buckets_and_cap_truncation(self):
        rng = np.random.default_rng(4)
        for frag in ("bow", "fofe", "birnn"):
            model, sents, lex = self.world(4, fragment_encoder=frag, bucket_cap=2)
            sent = sents[0]
            model.vocab.encode(sent)
            spans = ref.enumerate_fragments(len(sent), model.config.max_entity_len)
            for fill in (1.0, 0.5):
                layouts, n_matches = random_layouts(rng, len(spans),
                                                    model.config.k_cut, 2, lex, fill)
                assert sum(len(l.lex_ids) for l in layouts) < n_matches
                if fill == 1.0:
                    assert not any(len(l.null_buckets) for l in layouts)
                self.check(model, [(sent, layouts, spans)])

    def test_training_dropout_masks_match(self):
        for char in ("baseline", "birnn"):
            model, sents, lex = self.world(5, char_encoder=char, fragment_encoder="fofe")
            sent, spans, _, _ = _prepare(model, sents[1], lex)
            self.check(model, [(sent, self.reference_layouts(model, sent, lex, spans),
                                spans)], dropout=0.3)

    @pytest.mark.parametrize("head_layers", [0, 1, 2])
    @pytest.mark.parametrize("frag", ["bow", "fofe", "birnn"])
    @pytest.mark.parametrize("char", ["baseline", "birnn"])
    def test_head_depths_on_sentence_batches_with_dropout(self, char, frag, head_layers):
        # each depth's first layer (the output layer at depth 0) is the one
        # the model applies before pooling
        model, sents, lex = self.world(6, char_encoder=char, fragment_encoder=frag,
                                       head_layers=head_layers)
        items = []
        for sent in sents:
            model.vocab.encode(sent)
            spans = ref.enumerate_fragments(len(sent), model.config.max_entity_len)
            items.append((sent, self.reference_layouts(model, sent, lex, spans), spans))
        assert len(items) == 3
        self.check(model, items, dropout=0.3)


ENCODERS = [(char, frag) for char in ("baseline", "birnn")
            for frag in ("bow", "fofe", "birnn")]


class TestBatchMatchesSentences:
    """``Model.score_batch`` over 1-5 stacked sentences against one
    ``score_spans`` call per sentence: probabilities within 1e-12, every
    parameter gradient within 1e-10 (relative, and of its largest entry),
    the same dropout draws, sparse rows and attention dumps, and no LSTM
    chain that reads a row of another sentence."""

    @staticmethod
    def world(char, frag, picks, use_lex):
        train, _, words = make_corpus(11, n_train=6, n_dev=0)
        lex = Lexicon(words)
        cfg = ModelConfig(**{**SMALL, "char_encoder": char, "fragment_encoder": frag,
                             "char_hidden": 3, "char_layers": 2, "frag_hidden": 3})
        model = Model.build(cfg, Vocab.build(train, lex.words), np.random.default_rng(11))
        sents = []
        for k, n in picks:   # the first n characters of a corpus sentence
            s = train[k]
            sents.append(Sentence(s.chars[:n], s.seg_labels[:n], s.pos_tags[:n],
                                  {e for e in s.entities if e[1] < n}))
        lex = lex if use_lex else None
        return (model, [_prepare(model, s, lex) for s in sents],
                prepare_corpus(model, sents, lex))

    @staticmethod
    def run(model, prepared, corpus, batched, dropout):
        """Probabilities, attention, gradients, touched rows and the
        generator's state after one forward and backward, and the chain
        indices of each direction of every BiLSTM sequence op."""
        for t in model.params.values():
            t.grad = None
            t.zero_grad()
        rng = np.random.default_rng(3)
        k_cut = model.config.k_cut
        chains, bilstm_sequence = [], ad.bilstm_sequence

        def spy(x, index, *rest):
            chains.extend(np.asarray(index))
            return bilstm_sequence(x, index, *rest)

        with Tape() as tape, mock.patch.object(ad, "bilstm_sequence", spy):
            alpha = model.alpha()
            if batched:
                batch = corpus
                probs, weights = model.score_batch(batch, dropout, rng)
                loss = ad.focal_loss_rows(probs, batch.targets, alpha, model.config.gamma)
                probs = batch.split(probs.values)
                attn = batch.split(batch.layout.attention_rows(*weights, k_cut))
            else:
                probs, attn, loss = [], [], None
                for sent, spans, layout, targets in prepared:
                    p, weights = model.score_spans(sent, layout, spans, dropout, rng)
                    part = ad.focal_loss_rows(p, targets, alpha, model.config.gamma)
                    loss = part if loss is None else ref.add(loss, part)
                    probs.append(p.values)
                    attn.append(layout.attention_rows(*weights, k_cut))
            tape.backward(loss)
        grads = {k: np.zeros_like(v.values) if v.grad is None else v.grad.copy()
                 for k, v in model.params.items()}
        touched = {k: set(np.flatnonzero(model.params[k].touched_rows).tolist())
                   if model.params[k].touched_rows is not None else set()
                   for k in SPARSE_TABLES}
        return probs, attn, grads, touched, rng.bit_generator.state, chains

    @given(encoders=st.sampled_from(ENCODERS),
           picks=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 7)),
                          min_size=1, max_size=5),
           use_lex=st.booleans(), dropout=st.sampled_from([0.0, 0.3]))
    def test_batch_equals_sentence_by_sentence(self, encoders, picks, use_lex, dropout):
        model, prepared, corpus = self.world(*encoders, picks, use_lex)
        probs, attn, grads, touched, state, chains = self.run(model, prepared, corpus,
                                                              True, dropout)
        want = self.run(model, prepared, corpus, False, dropout)
        for p, want_p in zip(probs, want[0], strict=True):
            np.testing.assert_allclose(p, want_p, rtol=0, atol=1e-12)
        for a, want_a in zip(attn, want[1], strict=True):
            for (w, labels), (want_w, want_labels) in zip(a, want_a, strict=True):
                assert labels == want_labels
                assert np.array_equal(w, want_w)
        for k, g in grads.items():
            np.testing.assert_allclose(g, want[2][k], rtol=1e-10,
                                       atol=1e-10 * np.abs(want[2][k]).max(), err_msg=k)
        assert touched == want[3]
        assert state == want[4]   # the same number of dropout draws
        # every chain stays inside one sentence
        lengths = [len(item[0]) for item in prepared]
        sentence = np.repeat(np.arange(len(lengths)), lengths)
        assert len(chains) == (4 if encoders[0] == "birnn" else 0) + \
            (2 if encoders[1] == "birnn" else 0)
        for index in chains:
            assert np.all(sentence[index] == sentence[index[:, :1]])
        # scoring in chunks of 1 and of 16 sentences decodes the same
        by_one, by_16 = (score_corpus(model, corpus, batch_size=size) for size in (1, 16))
        for nested in (False, True):
            assert decode.key_sets(decode.decode_corpus(by_one, 0.0, nested)) == \
                decode.key_sets(decode.decode_corpus(by_16, 0.0, nested))

    def test_score_corpus_labels_the_forward_weights(self):
        # the dump of each sentence is attention_rows of the (p_real, p_null)
        # that score_batch returns for its chunk, and no span's dump is made
        # unless asked for
        model, _, corpus = self.world("birnn", "fofe", [(0, 7), (1, 5), (2, 7)], True)
        scored = score_corpus(model, corpus, want_attention=True, batch_size=2)
        assert len(scored) == 3
        for c0 in (0, 2):
            batch = corpus.gather(range(c0, min(c0 + 2, 3)))
            _, (p_real, p_null) = model.score_batch(batch)
            assert len(p_real) > 0
            totals = (np.bincount(batch.layout.row_span, p_real, minlength=len(batch.spans))
                      + p_null.sum(axis=1))
            np.testing.assert_allclose(totals, 1.0, rtol=0, atol=1e-12)
            rows = batch.split(batch.layout.attention_rows(p_real, p_null,
                                                           model.config.k_cut))
            for spans, want in zip(scored[c0:c0 + 2], rows, strict=True):
                for s, (w, labels) in zip(spans, want, strict=True):
                    assert s.attention[1] == labels
                    assert np.array_equal(s.attention[0], w)
                    assert s.attention[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert all(s.attention is None
                   for spans in score_corpus(model, corpus) for s in spans)

    def test_split_follows_span_counts(self):
        model, sents, lex = tiny_world()
        prepared = [ref.prepare_sentence(model, s, lex)
                    for s in (sents[0], sents[1], sents[0])]
        batch = prepare_corpus(model, sents, lex).gather([0, 1, 0])
        assert batch.lengths.tolist() == [4, 4, 4]
        assert batch.spans.tolist() == [[i + 4 * k, j + 4 * k]
                                        for k, item in enumerate(prepared)
                                        for i, j in item[1]]
        assert [len(part) for part in batch.split(list(range(len(batch.spans))))] == \
            [len(item[1]) for item in prepared]


class TestPreparedCorpus:
    """``prepare_corpus`` and ``Batch.gather`` against the per-sentence
    reference preparation of each sentence, stacked sentence after
    sentence: every array and dtype equal."""

    @staticmethod
    def assert_same(batch, want):
        for name in ("char_ids", "seg_ids", "pos_ids", "lengths", "spans",
                     "span_counts", "targets"):
            got, expected = getattr(batch, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        for name in ("lex_ids", "mode_ids", "row_span", "null_mask", "words"):
            got, expected = getattr(batch.layout, name), getattr(want.layout, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name

    @given(cuts=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           data=st.data(), use_lex=st.booleans(),
           over=st.sampled_from([{}, {"k_cut": 0, "bucket_cap": 1},
                                 {"max_entity_len": 7, "bucket_cap": 2}]))
    def test_gather_equals_per_sentence_stacking(self, cuts, data, use_lex, over):
        train, _, words = make_corpus(13, n_train=6, n_dev=0)
        lex = Lexicon(words) if use_lex else None
        model = Model.build(ModelConfig(**{**SMALL, **over}),
                            Vocab.build(train, words), np.random.default_rng(13))
        # the first n characters of the corpus sentences, entities cut with them
        sents = [Sentence(s.chars[:n], s.seg_labels[:n], s.pos_tags[:n],
                          {e for e in s.entities if e[1] < n})
                 for s, n in zip(train, cuts)]
        prepared = [ref.prepare_sentence(model, s, lex) for s in sents]
        corpus = prepare_corpus(model, sents, lex)
        self.assert_same(corpus, ref.stack_prepared(prepared))
        picks = data.draw(st.lists(st.integers(0, len(sents) - 1), min_size=1,
                                   max_size=8))
        self.assert_same(corpus.gather(np.array(picks)),
                         ref.stack_prepared([prepared[k] for k in picks]))

    @given(cuts=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           data=st.data(), use_lex=st.booleans())
    def test_gather_of_a_gathered_batch(self, cuts, data, use_lex):
        # a gathered batch carries its own offsets, the ones a batch of the
        # same sentences finds from scratch, and is gathered from in turn
        train, _, words = make_corpus(13, n_train=6, n_dev=0)
        lex = Lexicon(words) if use_lex else None
        model = Model.build(ModelConfig(**SMALL), Vocab.build(train, words),
                            np.random.default_rng(13))
        sents = [Sentence(s.chars[:n], s.seg_labels[:n], s.pos_tags[:n],
                          {e for e in s.entities if e[1] < n})
                 for s, n in zip(train, cuts)]
        prepared = [ref.prepare_sentence(model, s, lex) for s in sents]
        corpus = prepare_corpus(model, sents, lex)
        picks = data.draw(st.lists(st.integers(0, len(sents) - 1), min_size=1,
                                   max_size=8))
        again = data.draw(st.lists(st.integers(0, len(picks) - 1), min_size=1,
                                   max_size=8))
        for batch, items in ((corpus.gather(picks), picks),
                             (corpus.gather(picks).gather(again), [picks[k] for k in again])):
            want = ref.stack_prepared([prepared[k] for k in items])
            self.assert_same(batch, want)
            assert batch.offsets.dtype == want.offsets.dtype
            assert np.array_equal(batch.offsets, want.offsets)

    def test_batch_of_one_sentence(self):
        # the batch of one sentence holds its spans as the (n, 2) intp array
        # that prepare_corpus makes of it, and as an empty one without spans
        model, sents, lex = tiny_world()
        sent, spans, layout, targets = _prepare(model, sents[0], lex)
        batch = Batch.of_sentence(sent, spans, layout, targets)
        want = prepare_corpus(model, [sents[0]], lex)
        self.assert_same(batch, want)
        empty = Batch.of_sentence(sent, [], layout)
        assert empty.spans.dtype == np.intp and empty.spans.shape == (0, 2)
        assert empty.span_counts.tolist() == [0]

    def test_long_entities_are_not_targets(self):
        model, sents, lex = tiny_world(max_entity_len=2)
        corpus = prepare_corpus(model, sents, lex)
        # (0, 2, PER) is longer than two characters; (1, 2, ORG) is a span
        assert corpus.targets.tolist() == [
            model.vocab.types.id("ORG") if (k, i, j) == (1, 1, 2) else model.vocab.none_id
            for k, s in enumerate(sents) for i, j in ref.enumerate_fragments(len(s), 2)]

    def test_ids_of_another_vocabulary_are_encoded_again(self):
        # two models whose vocabularies number the characters differently,
        # on one sentence: each reads the ids of its own vocabulary
        train, _, words = make_corpus(13, n_train=6, n_dev=0)
        a, b = (Model.build(ModelConfig(**SMALL), Vocab.build(sents, words),
                            np.random.default_rng(13)) for sents in (train, train[::-1]))
        sent = train[0]
        own = Sentence(sent.chars, sent.seg_labels, sent.pos_tags)
        b.vocab.encode(own)
        prepare_corpus(a, [sent], None)
        assert not np.array_equal(sent.char_ids, own.char_ids)
        assert np.array_equal(prepare_corpus(b, [sent], None).char_ids, own.char_ids)
        _, spans, layout, _ = _prepare(b, own, None)
        a.vocab.encode(sent)
        assert np.array_equal(b.score_spans(sent, layout, spans)[0].values,
                              b.score_spans(own, layout, spans)[0].values)

    def test_empty_corpus(self):
        model, _, lex = tiny_world()
        corpus = prepare_corpus(model, [], lex)
        assert corpus.spans.shape == (0, 2) and len(corpus.targets) == 0
        assert score_corpus(model, corpus) == []


class TestPrepare:
    """``_prepare`` of a sentence is ``prepare_corpus`` of it alone, with the
    spans as the list of (i, j) tuples of Python ints that the benchmark
    and the decoder iterate."""

    @pytest.mark.parametrize("char, frag", ENCODERS)
    @pytest.mark.parametrize("use_lex", [True, False])
    def test_equals_a_corpus_of_one(self, char, frag, use_lex):
        sents, _, words = make_corpus(6, n_train=3, n_dev=0)
        lex = Lexicon(words) if use_lex else None
        cfg = ModelConfig(**{**SMALL, "char_encoder": char, "fragment_encoder": frag,
                             "char_hidden": 3, "char_layers": 2, "frag_hidden": 3})
        model = Model.build(cfg, Vocab.build(sents, words), np.random.default_rng(6))
        for sent in sents:
            got_sent, spans, layout, targets = _prepare(model, sent, lex)
            corpus = prepare_corpus(model, [sent], lex)
            assert got_sent is sent
            assert all(type(span) is tuple and [type(x) for x in span] == [int, int]
                       for span in spans)
            starts, ends = fragment_rows([len(sent)], model.config.max_entity_len)
            assert spans == list(zip(starts.tolist(), ends.tolist()))
            assert targets.dtype == corpus.targets.dtype
            assert np.array_equal(targets, corpus.targets)
            for name in ("lex_ids", "mode_ids", "row_span", "null_mask", "words"):
                got, want = getattr(layout, name), getattr(corpus.layout, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert _score(model, (got_sent, spans, layout, targets)) == \
                score_corpus(model, corpus)[0]


class TestTapeSize:
    def test_nodes_per_sentence_independent_of_length(self):
        # the default config, and it with the BiLSTM fragment encoder,
        # records no tape node per character, LSTM step or span (and none
        # for its two column splits)
        train, _, words = make_corpus(0, n_train=20, n_dev=0)
        lex = Lexicon(words)
        vocab = Vocab.build(train, lex.words)
        chars = [c for s in train for c in s.chars]
        segs = [l for s in train for l in s.seg_labels]
        pos = [p for s in train for p in s.pos_tags]
        for over, want in (({}, 23), ({"fragment_encoder": "birnn"}, 23)):
            model = Model.build(ModelConfig(**over), vocab, np.random.default_rng(0))
            counts = []
            for n in (1, 9, 72):
                sent, spans, layout, targets = _prepare(
                    model, Sentence(chars[:n], segs[:n], pos[:n]), lex)
                with Tape() as tape:
                    probs, _ = model.score_spans(sent, layout, spans, dropout_rate=0.3,
                                                 rng=np.random.default_rng(0))
                    ad.focal_loss_rows(probs, targets, model.alpha(), model.config.gamma)
                counts.append(len(tape._records))
            assert counts == [want] * 3, over

    def test_training_step_nodes_independent_of_batch_size(self):
        # one forward per minibatch: a per-sentence loop in training would
        # record nodes in proportion to the sentences of a step
        train, _, words = make_corpus(0, n_train=16, n_dev=0)
        lex = Lexicon(words)
        vocab = Vocab.build(train, lex.words)
        backward = Tape.backward
        for over in ({}, {"fragment_encoder": "birnn"}, SMALL):
            counts = []

            def count(tape, out):
                counts.append(len(tape._records))
                return backward(tape, out)

            for size in (2, 16):
                model = Model.build(ModelConfig(**over), vocab, np.random.default_rng(0))
                with mock.patch.object(Tape, "backward", count):
                    train_model(model, train[:size], [], lex,
                                TrainSettings(epochs=1, batch_size=size, seed=0))
            assert len(counts) == 2 and counts[0] == counts[1], (over, counts)


class TestScoringMemory:
    def test_untaped_forward_holds_each_stage_only_while_read(self):
        # one untaped forward at the paper-default widths of a chunk of 16
        # long sentences, the shape eval and predict score; holding every
        # stage until the forward returns takes about 11 KB a span
        train, _, words = make_corpus(4, n_train=240, n_dev=0)
        lex = Lexicon(words)
        chars = [c for s in train for c in s.chars]
        segs = [l for s in train for l in s.seg_labels]
        pos = [p for s in train for p in s.pos_tags]
        sents = [Sentence(chars[k:k + 200], segs[k:k + 200], pos[k:k + 200])
                 for k in range(0, 16 * 200, 200)]
        assert [len(s) for s in sents] == [200] * 16
        model = Model.build(ModelConfig(), Vocab.build(sents, lex.words),
                            np.random.default_rng(0))
        batch = prepare_corpus(model, sents, lex)
        want = model.score_batch(batch)[0].values
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            probs, _ = model.score_batch(batch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(probs.values, want)
        assert peak / len(batch.spans) < 9000

    def test_taped_step_frees_as_backward_runs(self):
        # one training step, forward and backward, of train-small's
        # minibatch shape: 16 sentences at the criterion-7 config, after a
        # warm-up step, so the parameters already hold their gradients.
        # Zero-filling a gradient for every op output at forward time and
        # keeping every backward closure until the tape is dropped took
        # about 6.8 KB a span; gradients made on first write and a tape
        # popped as it runs take about 4.5 KB
        train, _, words = make_corpus(901, n_train=200, n_dev=60)
        lex = Lexicon(words)
        model = Model.build(ModelConfig(**OVERFIT_CONFIG), Vocab.build(train, lex.words),
                            np.random.default_rng(901))
        batch = prepare_corpus(model, train[:16], lex)

        def step():
            with Tape() as tape:
                probs, _ = model.score_batch(batch)
                loss = ad.scale(ad.focal_loss_rows(probs, batch.targets, model.alpha(),
                                                   model.config.gamma),
                                1.0 / len(batch.targets))
                tape.backward(loss)
            grads = {name: p.grad.copy() for name, p in model.params.items()}
            for p in model.params.values():
                p.zero_grad()
            return float(loss.values), grads

        want_loss, want_grads = step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss, grads = step()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert loss == want_loss
        assert all(np.array_equal(grads[name], g) for name, g in want_grads.items())
        assert peak / len(batch.spans) < 5500

    def test_scored_spans_hold_few_bytes_each(self):
        # score_corpus builds a ScoredSpan for every span: with slots and
        # no per-instance dict, one span with its probability and its list
        # slot holds about 114 B; with a dict it held about 162 B
        train, _, words = make_corpus(2, n_train=60, n_dev=0)
        lex = Lexicon(words)
        model = Model.build(ModelConfig(**SMALL), Vocab.build(train, lex.words),
                            np.random.default_rng(0))
        corpus = prepare_corpus(model, train, lex)
        want = score_corpus(model, corpus)   # also finds the corpus offsets once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scored = score_corpus(model, corpus)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert scored == want
        assert held / len(corpus.spans) < 130


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
        model, sents, lex = tiny_world()
        _, spans, _, targets = _prepare(model, sents[0], lex)
        labels = dict(zip(spans, targets.tolist()))
        assert labels[(0, 2)] == model.vocab.types.id("PER")
        assert labels[(0, 1)] == model.vocab.none_id
        assert labels[(3, 3)] == model.vocab.none_id


class TestTraining:
    def settings(self, **over):
        base = dict(lr=1e-2, dropout=0.0, epochs=3, batch_size=2,
                    eval_train=True, seed=0)
        base.update(over)
        return TrainSettings(**base)

    def test_single_sentence_overfit(self):
        model, sents, lex = tiny_world(learn_alpha=False, gamma=0.0)
        prepared = _prepare(model, sents[0], lex)
        opt = Adam({k: v for k, v in model.params.items() if k != "emb_lex"}, lr=1e-2,
                   weight_decay=1e-7, sparse=SPARSE_TABLES)
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

    def test_entities_longer_than_max_entity_len_warn_once(self, caplog):
        model, sents, lex = tiny_world()
        train_model(model, sents, [], lex, self.settings(epochs=1))
        assert "max_entity_len" not in caplog.text
        # (0, 2, PER) is 3 characters long; (1, 2, ORG) fits in 2
        model, sents, lex = tiny_world(max_entity_len=2)
        sents.append(Sentence(list("abcdu"), ["B", "M", "M", "E", "S"], ["NN"] * 5,
                              entities={(0, 3, "PER")}))
        train_model(model, sents, [], lex, self.settings(epochs=2))
        warned = [r.getMessage() for r in caplog.records if "max_entity_len" in r.getMessage()]
        assert warned == ["2 training entities are longer than max_entity_len 2 (longest "
                          "4 characters); no span covers them, so they are never learned"]

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
            "751475033d6c19de395806adcab3f1015789f70cf1b2ca45ce93190b46387db3"

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

    def test_v1_checkpoint_rejected(self, tmp_path):
        # format v1 also stored the vocabulary sizes in the config
        path, model, header, body = self.saved(tmp_path)
        header["config"].update(zip(("n_chars", "n_seg", "n_pos", "n_types", "n_lex"),
                                    (len(getattr(model.vocab, t)) for t in Vocab.TABLES)))
        path.write_bytes(b"lexner-checkpoint v1\n" + json.dumps(header).encode()
                         + b"\n" + body)
        with pytest.raises(ConfigError, match="not a recognized checkpoint"):
            checkpoint.load(str(path))

    def test_one_config_builds_models_for_two_vocabularies(self, tmp_path):
        # building a second model must leave the first one's config as it was,
        # so that the first model still saves and loads
        cfg = ModelConfig(**SMALL)
        models = []
        for train, _, lex_words in (make_corpus(1, 20, 0),
                                    make_corpus(2, 40, 0, lexicon_size=700)):
            models.append(Model.build(cfg, Vocab.build(train, lex_words),
                                      np.random.default_rng(0)))
        assert len(models[0].vocab.chars) != len(models[1].vocab.chars)
        path = str(tmp_path / "first.ckpt")
        checkpoint.save(path, models[0])
        loaded, _ = checkpoint.load(path)
        assert list(loaded.params) == list(models[0].params)
        for k, v in models[0].params.items():
            assert np.array_equal(loaded.params[k].values, v.values)

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
        with pytest.raises(ConfigError, match="does not fit the config and vocabulary"
                                              ".*head_out_w"):
            checkpoint.load(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, _, header, body = self.saved(tmp_path)
        self.write(path, header, body + bytes(8))
        with pytest.raises(ConfigError, match="trailing"):
            checkpoint.load(str(path))

    def test_truncated_tensor_rejected(self, tmp_path):
        path, model, header, body = self.saved(tmp_path)
        first, *_, last = model.params
        for cut, name in ((8, first), (len(body) - 4, last)):
            self.write(path, header, body[:cut])
            with pytest.raises(ConfigError, match=f"truncated tensor {name}$"):
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

    @pytest.mark.parametrize("key, value", [
        ("k_cut", 2.0), ("max_entity_len", 3.0), ("learn_alpha", "no"),
        ("head_layers", True), ("char_encoder", 1)])
    def test_mistyped_config_value_rejected(self, tmp_path, key, value):
        path, _, header, body = self.saved(tmp_path)
        header["config"][key] = value
        self.write(path, header, body)
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: config {key} "):
            checkpoint.load(str(path))

    def test_float_config_value_takes_an_int(self, tmp_path):
        path, _, header, body = self.saved(tmp_path)
        header["config"]["gamma"] = 2
        self.write(path, header, body)
        assert checkpoint.load(str(path))[0].config.gamma == 2

    @pytest.mark.parametrize("extra", [[1, 2], None, "x"])
    def test_extra_not_an_object_rejected(self, tmp_path, extra):
        path, _, header, body = self.saved(tmp_path)
        header["extra"] = extra
        self.write(path, header, body)
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: checkpoint extra"):
            checkpoint.load(str(path))

    def test_manifest_is_what_build_makes(self):
        for over in ({}, {"char_encoder": "birnn", "char_layers": 2,
                          "fragment_encoder": "birnn", "head_layers": 2}):
            model, _, _ = tiny_world(**over)
            assert param_shapes(model.config, model.vocab) == {
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
