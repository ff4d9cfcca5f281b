"""Acceptance gate: ten checks, one printed pass/fail line each.

Each test prints ``[ACCEPTANCE] <n> <name>: PASS|FAIL`` on the live
terminal (bypassing capture) before asserting, so the scorecard is visible
even in a longer pytest run.
"""
import time
from pathlib import Path

import numpy as np
import pytest

import lexner.autodiff as ad
from lexner import checkpoint
from lexner.autodiff import Tape
from lexner.corpus import Vocab
from lexner.decode import ScoredSpan, filter_threshold, resolve
from lexner.encoders import (encode_fragments_birnn, encode_fragments_fofe,
                             fragment_count, fragment_rows)
from lexner.lexicon import Lexicon, match_fragment
from lexner.model import (Model, ModelConfig, SPARSE_TABLES, TrainSettings,
                          _prepare, train_model)
from lexner.optim import Adam
from lexner.synth import make_corpus

from span_reference import add, enumerate_fragments, lstm_cell, lstm_run


def report(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"\n[ACCEPTANCE] {number} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- shared training run (criteria 7 and 9) ---------------------------------

OVERFIT_SETTINGS = TrainSettings(lr=1e-2, dropout=0.0, batch_size=16,
                                 epochs=50, freeze_lex=False, eval_train=True,
                                 early_stop_f1=0.99, seed=1)
OVERFIT_CONFIG = dict(d_char=16, d_seg=8, d_pos=8, d_lex=24, d_mod=8,
                      k_cut=2, max_entity_len=5, char_encoder="baseline",
                      fragment_encoder="bow", head_hidden=32, head_layers=1)


@pytest.fixture(scope="module")
def overfit_run():
    train, dev, lex_words = make_corpus(0, n_train=200, n_dev=30)
    lex = Lexicon(lex_words)
    vocab = Vocab.build(train + dev, lex.words)
    model = Model.build(ModelConfig(**OVERFIT_CONFIG), vocab,
                        np.random.default_rng(1))
    t0 = time.perf_counter()
    best, rows = train_model(model, train, [], lex, OVERFIT_SETTINGS)
    elapsed = time.perf_counter() - t0
    model.restore(best)
    return model, rows, elapsed, dev, lex


# ---------------------------------------------------------------------------


def test_1_fragment_count_law(capsys):
    # the spans the model enumerates are those of a direct enumeration, and
    # as many as the closed form counts
    t0 = time.perf_counter()
    ok = all(list(zip(starts.tolist(), ends.tolist())) == enumerate_fragments(n, m)
             and fragment_count(n, m) == len(starts) == m2 * (2 * n - m2 + 1) // 2
             for n in range(1, 51) for m in range(1, 51)
             for m2 in [min(m, n)] for starts, ends in [fragment_rows([n], m)])
    elapsed = time.perf_counter() - t0
    report(capsys, 1, "fragment-count law", ok and elapsed < 1.0,
           f"all 1<=m,N<=50, {elapsed:.2f}s")


def brute_force_matches(frag, words):
    n = len(frag)
    out = {}
    for wid, w in enumerate(words):
        mode = None
        if w == frag:
            mode = "exact"
        elif len(w) < n and frag.startswith(w):
            mode = "prefix"
        elif len(w) < n and frag.endswith(w):
            mode = "suffix"
        else:
            for s in range(1, n - 1):
                if s + len(w) <= n - 1 and frag[s:s + len(w)] == w:
                    mode = "infix"
                    break
        if mode is not None:
            out[wid] = (mode, len(w))
    return out


def test_2_matching_oracle(capsys):
    rng = np.random.default_rng(2)
    alphabet = list("abcde")
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        words = ["".join(rng.choice(alphabet, int(rng.integers(1, 6))))
                 for _ in range(int(rng.integers(1, 51)))]
        lex = Lexicon(words)
        frag = "".join(rng.choice(alphabet, int(rng.integers(1, 11))))
        want = brute_force_matches(frag, lex.words)
        got = {m.word_id: (m.mode, m.k) for m in match_fragment(lex, frag)}
        mismatches += got != want
    elapsed = time.perf_counter() - t0
    report(capsys, 2, "matching oracle equivalence",
           mismatches == 0 and elapsed < 5.0,
           f"1000 cases, {mismatches} mismatches, {elapsed:.2f}s")


def test_3_incremental_encoder_equivalence(capsys):
    t0 = time.perf_counter()
    worst_fofe = worst_birnn = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        t = ad.Tensor(rng.normal(size=(n, 3)))
        rows = [ad.Tensor(row) for row in t.values]
        spans = enumerate_fragments(n, n)
        alpha = float(rng.uniform(0.1, 0.9))
        fwd, bwd = lstm_cell(3, 3, rng), lstm_cell(3, 3, rng)
        with Tape():
            fofe = encode_fragments_fofe(t, spans, alpha)
            birnn = encode_fragments_birnn(t, spans, fwd, bwd, [n])
            for s, (i, j) in enumerate(spans):
                z = np.zeros(3)
                for k in range(i, j + 1):
                    z = alpha * z + t.values[k]
                worst_fofe = max(worst_fofe,
                                 float(np.abs(fofe.values[s] - z).max()))
                f = lstm_run(rows[i:j + 1], fwd)[-1].values
                b = lstm_run(rows[i:j + 1], bwd, reverse=True)[0].values
                direct = np.concatenate([f, b])
                worst_birnn = max(worst_birnn,
                                  float(np.abs(birnn.values[s] - direct).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_fofe < 1e-10 and worst_birnn < 1e-8 and elapsed < 30.0
    report(capsys, 3, "incremental-encoder equivalence", ok,
           f"200 seeds, fofe err {worst_fofe:.1e}, "
           f"birnn err {worst_birnn:.1e}, {elapsed:.1f}s")


def test_4_gradient_audit(capsys):
    # 2-sentence micro-corpus through the full model (both LSTM encoders,
    # attention, focal head with learned per-class weights)
    train, _, lex_words = make_corpus(4, n_train=2, n_dev=0)
    lex = Lexicon(lex_words[:10])
    vocab = Vocab.build(train, lex.words)
    cfg = ModelConfig(d_char=3, d_seg=2, d_pos=2, d_lex=3, d_mod=2, k_cut=0,
                      max_entity_len=4, char_encoder="birnn", char_hidden=2,
                      char_layers=1, fragment_encoder="birnn", frag_hidden=2,
                      head_hidden=3, head_layers=1)
    model = Model.build(cfg, vocab, np.random.default_rng(0))
    prepared = [_prepare(model, s, lex) for s in train]
    n_frags = sum(len(p[1]) for p in prepared)

    def forward(backward=False):
        with Tape() as tape:
            alpha = model.alpha()
            total = None
            for sent, spans, layouts, targets in prepared:
                probs, _ = model.score_spans(sent, layouts, spans)
                l = ad.focal_loss_rows(probs, targets, alpha, cfg.gamma)
                total = l if total is None else add(total, l)
            loss = ad.scale(total, 1.0 / n_frags)
            if backward:
                tape.backward(loss)
        return float(loss.values)

    forward(backward=True)
    h = 1e-5
    t0 = time.perf_counter()
    worst, worst_name = 0.0, ""
    for name, p in model.params.items():
        an = p.grad.copy()
        flat = p.values.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = forward()
            flat[idx] = keep - h
            down = forward()
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            a = an.reshape(-1)[idx]
            # absolute floor keeps FD roundoff on near-zero entries from
            # registering as large relative error
            rel = abs(fd - a) / max(abs(fd), abs(a), 1e-5)
            if rel > worst:
                worst, worst_name = rel, name
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(capsys, 4, "end-to-end gradient audit", ok,
           f"all parameter groups, worst rel err {worst:.2e} "
           f"in {worst_name or '-'}, {elapsed:.1f}s")


def test_5_focal_reduces_to_cross_entropy(capsys):
    # gamma=0 and unit class weights: every batch loss over one full epoch
    # must equal an explicit cross-entropy computation
    train, _, lex_words = make_corpus(5, n_train=24, n_dev=0)
    lex = Lexicon(lex_words)
    vocab = Vocab.build(train, lex.words)
    cfg = ModelConfig(**{**OVERFIT_CONFIG, "gamma": 0.0, "learn_alpha": False})
    model = Model.build(cfg, vocab, np.random.default_rng(0))
    prepared = [_prepare(model, s, lex) for s in train]
    opt = Adam(model.params, lr=1e-3, weight_decay=1e-7,
               sparse=SPARSE_TABLES)
    worst = 0.0
    for b0 in range(0, len(prepared), 8):
        batch = prepared[b0:b0 + 8]
        with Tape() as tape:
            alpha = model.alpha()
            total, ce, n_frags = None, 0.0, 0
            for sent, spans, layouts, targets in batch:
                probs, _ = model.score_spans(sent, layouts, spans)
                l = ad.focal_loss_rows(probs, targets, alpha, 0.0)
                total = l if total is None else add(total, l)
                ce -= float(np.sum(np.log(
                    probs.values[np.arange(len(spans)), targets])))
                n_frags += len(spans)
            loss = ad.scale(total, 1.0 / n_frags)
            tape.backward(loss)
        worst = max(worst, abs(float(loss.values) - ce / n_frags))
        opt.step()
        opt.zero_grad()
    report(capsys, 5, "focal loss reduces to cross-entropy", worst < 1e-9,
           f"max per-step deviation {worst:.1e}")


def _partial_overlap(a, b):
    if a.end < b.start or b.end < a.start:
        return False
    a_in_b = b.start <= a.start and a.end <= b.end
    b_in_a = a.start <= b.start and b.end <= a.end
    return not (a_in_b or b_in_a)


def test_6_decoder_safety(capsys):
    rng = np.random.default_rng(6)
    flat_bad = nested_bad = 0
    for _ in range(10_000):
        spans = []
        for _ in range(int(rng.integers(0, 10))):
            i = int(rng.integers(0, 12))
            spans.append(ScoredSpan(start=i, end=i + int(rng.integers(0, 5)),
                                    type=str(rng.choice(["A", "B"])),
                                    prob=float(rng.random())))
        flat = resolve(spans, nested=False)
        for x in range(len(flat)):
            for y in range(x + 1, len(flat)):
                a, b = flat[x], flat[y]
                flat_bad += not (a.end < b.start or b.end < a.start)
        nested = resolve(spans, nested=True)
        for x in range(len(nested)):
            for y in range(x + 1, len(nested)):
                nested_bad += _partial_overlap(nested[x], nested[y])
    ok = flat_bad == 0 and nested_bad == 0
    report(capsys, 6, "decoder safety", ok,
           f"10^4 sets, {flat_bad} flat overlaps, "
           f"{nested_bad} nested partial overlaps")


def test_7_overfit_benchmark(capsys, overfit_run):
    _, rows, elapsed, _, _ = overfit_run
    best = max(r.f1 for r in rows)
    epochs = max(r.epoch for r in rows)
    ok = best >= 0.99 and epochs <= 50 and elapsed < 300.0
    report(capsys, 7, "synthetic overfit benchmark", ok,
           f"train F1 {best:.4f} after {epochs} epochs, {elapsed:.0f}s")


def test_8_ablation_direction(capsys):
    # the lexicon memory is the only pathway that can tell a suffix word
    # from its reversal, so removing it must strictly hurt dev F1
    train, dev, lex_words = make_corpus(8, n_train=200, n_dev=30)
    lex = Lexicon(lex_words)
    vocab = Vocab.build(train + dev, lex.words)
    margins = []
    ok = True
    for seed in range(5):
        scores = {}
        for use_lex in (True, False):
            model = Model.build(ModelConfig(**OVERFIT_CONFIG), vocab,
                                np.random.default_rng(seed))
            settings = TrainSettings(lr=1e-2, dropout=0.0, batch_size=16,
                                     epochs=14, freeze_lex=False,
                                     use_lexicon=use_lex, seed=seed)
            _, rows = train_model(model, train, dev, lex, settings)
            scores[use_lex] = max(r.f1 for r in rows)
        margins.append(scores[True] - scores[False])
        ok = ok and scores[True] > scores[False]
    report(capsys, 8, "lexicon ablation direction", ok,
           "dev F1 margins per seed: "
           + ", ".join(f"{m:+.3f}" for m in margins))


def test_9_threshold_monotonicity(capsys, overfit_run):
    model, _, _, dev, lex = overfit_run
    from lexner.model import _score
    scored = [_score(model, _prepare(model, s, lex)) for s in dev]
    counts = []
    for rho in [round(0.1 * i, 1) for i in range(10)]:
        counts.append(sum(len(filter_threshold(sc, rho)) for sc in scored))
    ok = all(a >= b for a, b in zip(counts, counts[1:]))
    report(capsys, 9, "threshold monotonicity", ok,
           "survivor counts " + "->".join(str(c) for c in counts))


def test_10_determinism(capsys, tmp_path):
    train, dev, lex_words = make_corpus(10, n_train=30, n_dev=10)
    lex = Lexicon(lex_words)
    settings = TrainSettings(lr=1e-2, dropout=0.3, batch_size=8, epochs=3,
                             freeze_lex=False, seed=3)
    artifacts = []
    for run in range(2):
        vocab = Vocab.build(train + dev, lex.words)
        model = Model.build(ModelConfig(**OVERFIT_CONFIG), vocab,
                            np.random.default_rng(3))
        best, rows = train_model(model, train, dev, lex, settings)
        model.restore(best)
        path = str(tmp_path / f"run{run}.ckpt")
        checkpoint.save(path, model)
        artifacts.append((Path(path).read_bytes(),
                          [(r.epoch, r.split, r.precision, r.recall, r.f1,
                            r.loss) for r in rows]))
    (bytes_a, log_a), (bytes_b, log_b) = artifacts
    ok = bytes_a == bytes_b and log_a == log_b
    report(capsys, 10, "seeded determinism", ok,
           f"checkpoints identical: {bytes_a == bytes_b}, "
           f"logs identical: {log_a == log_b}")
