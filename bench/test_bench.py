"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lexner import decode, synth  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.5, 1),
        ("b", 5.0, 6.0, 0),
        ("later", 11.0, 12.5, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0, 1.5])


def test_tracer_times_nested_calls_and_restores_them():
    from lexner import decode as dec
    original = dec.resolve
    with tracing.Tracer() as tracer:
        kept = dec.resolve(dec.filter_threshold(
            [decode.ScoredSpan(0, 1, "PER", 0.9), decode.ScoredSpan(1, 2, "ORG", 0.8)],
            0.5))
    assert dec.resolve is original
    assert [s.key() for s in kept] == [(0, 1, "PER")]
    assert [name for name, *_ in tracer.spans] == ["decode.filter", "decode.resolve"]
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["decode.survivors"] == (2, "count")
    assert metrics["decode.kept_ratio"] == (0.5, "ratio")
    # layers the call never reached read zero instead of failing
    assert metrics["model.attend_calls"] == (0, "count")


def test_layer_metrics_match_the_benchmark_record():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        record = json.load(fh)
    metrics = tracing.layer_metrics(tracing.Tracer(), 1.0)
    assert [m["name"] for m in record["per_layer"]] == list(metrics)
    assert [m["unit"] for m in record["per_layer"]] == [u for _, u in metrics.values()]


def test_sentences_of_lengths_shift_and_cut_entities():
    lengths = workloads.LONG_LENGTHS
    assert len(lengths) == 40 and min(lengths) == 8 and max(lengths) == 200
    assert lengths == sorted(lengths)
    pieces, _, _ = synth.make_corpus(3, n_train=workloads.pieces_needed(lengths),
                                     n_dev=0)
    sentences = workloads.sentences_of_lengths(pieces, lengths)
    assert [len(s) for s in sentences] == lengths
    rest = iter(pieces)
    for length, sent in zip(lengths, sentences):
        used = [next(rest)]
        while sum(len(p) for p in used) < length:
            used.append(next(rest))
        joined = "".join(p.text for p in used)
        assert sent.text == joined[:length]
        # every entity of the pieces that ends before the cut, at its shifted offset
        offsets = [sum(len(p) for p in used[:k]) for k in range(len(used))]
        expected = {(s + o, e + o, t) for p, o in zip(used, offsets)
                    for s, e, t in p.entities if e + o < length}
        assert sent.entities == expected
        assert sent.seg_labels[-1] in ("E", "S")
        assert sorted((sent.text[s:e + 1], t) for s, e, t in sent.entities) == sorted(
            (p.text[s:e + 1], t) for p, o in zip(used, offsets)
            for s, e, t in p.entities if e + o < length)


def test_plateaus_give_p50_and_p75_the_middle_of_one_length():
    lengths = workloads.with_plateaus(list(range(100, 140)), width=2)
    assert lengths == sorted(lengths)
    assert lengths[17:22] == [119] * 5 and lengths[16] == 116 and lengths[22] == 122
    assert lengths[27:32] == [129] * 5 and lengths[26] == 126 and lengths[32] == 132
    for q, length in ((50, 119), (75, 129)):
        assert run.percentile(lengths, q)[0] == length
    for held in (workloads.LONG_LENGTHS, workloads.HELD_OUT_LENGTHS):
        assert len(held) == 40 and run.latency_summary(held)["beyond_p75"] == 10


def test_cut_sentence_closes_the_cut_word():
    pieces, _, _ = synth.make_corpus(0, n_train=1, n_dev=0)
    sent = pieces[0]
    for length in range(1, len(sent) + 1):
        cut = workloads.cut_sentence(sent, length)
        assert cut.chars == sent.chars[:length]
        assert cut.seg_labels[:-1] == sent.seg_labels[:length - 1]
        assert cut.seg_labels[-1] in ("E", "S")
        assert all(e < length for _, e, _ in cut.entities)


def test_sentences_of_lengths_rejects_too_few_pieces():
    pieces, _, _ = synth.make_corpus(0, n_train=10, n_dev=0)
    with pytest.raises(ValueError):
        workloads.sentences_of_lengths(pieces, workloads.LONG_LENGTHS)


def test_held_out_sentences_keep_the_training_corpus():
    workload = workloads.WORKLOADS["train-small"]
    state = workload.setup(5)
    train, dev, _ = synth.make_corpus(5, n_train=workload.n_train, n_dev=workload.n_dev)
    assert [s.text for s in state["train"]] == [s.text for s in train]
    assert [s.text for s in state["dev"]] == [s.text for s in dev]
    assert [len(s) for s in state["held_out"]] == workloads.HELD_OUT_LENGTHS


def test_percentile_reports_samples_beyond():
    values = [float(v) for v in range(40, 0, -1)]
    assert run.percentile(values, 50) == (20.0, 20)
    assert run.percentile(values, 75) == (30.0, 10)
    summary = run.latency_summary(values)
    assert (summary["p50"], summary["p75"]) == (20.0, 30.0)
    assert (summary["samples"], summary["beyond_p75"]) == (40, 10)
    with pytest.raises(ValueError):
        run.latency_summary(values[:39])


def _span(start, end, prob=0.9, type_="PER", is_none=False):
    return decode.ScoredSpan(start, end, type_, prob, is_none)


def test_checks_catch_bad_outputs():
    assert workloads.check_flat([_span(0, 2), _span(3, 4)]) == []
    assert workloads.check_flat([_span(0, 2), _span(2, 4)])
    assert workloads.check_nested([_span(0, 4), _span(1, 2)]) == []
    assert workloads.check_nested([_span(0, 2), _span(1, 3)])
    assert workloads.check_nested([_span(0, 2), _span(0, 2, type_="ORG")])
    assert workloads.check_threshold([_span(0, 1, prob=0.3)], 0.3)
    assert workloads.check_threshold([_span(0, 1, is_none=True)], 0.0)
    assert workloads.check_probs(np.array([[0.5, 0.5]])) == []
    assert workloads.check_probs(np.array([[0.5, 0.5 + 1e-8]]))
    assert workloads.check_probs(np.array([[np.nan, 1.0]]))


def test_scored_spans_mirror_model_score():
    from lexner.corpus import Vocab
    from lexner.lexicon import Lexicon
    from lexner.model import Model, ModelConfig, _prepare, _score
    train, _, words = synth.make_corpus(0, n_train=2, n_dev=0)
    lex = Lexicon(words)
    model = Model.build(ModelConfig(**workloads.SMALL_CONFIG),
                        Vocab.build(train, lex.words), np.random.default_rng(0))
    prepared = _prepare(model, train[0], lex)
    probs, _ = model.score_spans(train[0], prepared[2], prepared[1])
    ours = workloads.scored_spans(model, prepared[1], probs.values)
    assert ours == _score(model, prepared)

