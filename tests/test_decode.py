import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lexner.decode import (ScoredSpan, evaluate, evaluate_by_type,
                           filter_threshold, resolve)

import decode_reference as ref


def span(start, end, type="PER", prob=0.9, is_none=False):
    return ScoredSpan(start=start, end=end, type=type, prob=prob,
                      is_none=is_none)


class TestFilterThreshold:
    def test_drops_none_and_low_prob(self):
        spans = [span(0, 1, prob=0.9), span(2, 3, prob=0.2),
                 span(4, 5, prob=0.9, is_none=True)]
        kept = filter_threshold(spans, 0.25)
        assert [s.key() for s in kept] == [(0, 1, "PER")]

    def test_strict_inequality(self):
        assert filter_threshold([span(0, 0, prob=0.25)], 0.25) == []

    def test_zero_threshold_keeps_all_typed(self):
        spans = [span(0, 0, prob=1e-9), span(1, 1, is_none=True)]
        assert len(filter_threshold(spans, 0.0)) == 1

    def test_bad_threshold(self):
        for rho in (-0.1, 1.5):
            with pytest.raises(ValueError):
                filter_threshold([], rho)


class TestResolveFlat:
    def test_non_overlapping_pass_through(self):
        spans = [span(0, 1), span(3, 4, "ORG")]
        assert [s.key() for s in resolve(spans)] == [(0, 1, "PER"),
                                                     (3, 4, "ORG")]

    def test_outer_wins_even_with_lower_prob(self):
        spans = [span(0, 3, prob=0.5), span(1, 2, prob=0.99)]
        assert [s.key() for s in resolve(spans)] == [(0, 3, "PER")]

    def test_partial_overlap_higher_prob_wins(self):
        spans = [span(0, 2, prob=0.6), span(2, 4, prob=0.8, type="ORG")]
        assert [s.key() for s in resolve(spans)] == [(2, 4, "ORG")]

    def test_tie_breaks_earlier_start(self):
        spans = [span(2, 4, prob=0.7), span(0, 2, prob=0.7, type="ORG")]
        assert [s.key() for s in resolve(spans)] == [(0, 2, "ORG")]

    def test_tie_breaks_longer_span(self):
        # same prob, same start, partial overlap resolved toward the longer
        spans = [span(0, 1, prob=0.7), span(0, 3, prob=0.7)]
        assert [s.key() for s in resolve(spans)] == [(0, 3, "PER")]

    def test_chain_of_overlaps(self):
        spans = [span(0, 2, prob=0.9), span(2, 4, prob=0.8),
                 span(4, 6, prob=0.7)]
        kept = [s.key() for s in resolve(spans)]
        assert kept == [(0, 2, "PER"), (4, 6, "PER")]

    def test_output_sorted_by_position(self):
        spans = [span(5, 6, prob=0.99), span(0, 1, prob=0.5)]
        kept = resolve(spans)
        assert [s.start for s in kept] == [0, 5]

    def test_random_outputs_never_overlap(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            spans = [span(int(i), int(j), prob=float(rng.random()))
                     for i, j in ((rng.integers(0, 10),) * 2 for _ in range(8))
                     ] + [span(int(a), int(a + rng.integers(0, 4)),
                               prob=float(rng.random()))
                          for a in rng.integers(0, 10, 8)]
            kept = resolve(spans)
            for x in range(len(kept)):
                for y in range(x + 1, len(kept)):
                    a, b = kept[x], kept[y]
                    assert a.end < b.start or b.end < a.start


class TestResolveNested:
    def test_containment_allowed(self):
        spans = [span(0, 3, prob=0.5), span(1, 2, prob=0.9, type="ORG")]
        kept = {s.key() for s in resolve(spans, nested=True)}
        assert kept == {(0, 3, "PER"), (1, 2, "ORG")}

    def test_partial_overlap_still_resolved(self):
        spans = [span(0, 2, prob=0.6), span(2, 4, prob=0.8, type="ORG")]
        assert [s.key() for s in resolve(spans, nested=True)] == [(2, 4, "ORG")]

    def test_identical_extent_clashes(self):
        spans = [span(0, 2, prob=0.9, type="PER"),
                 span(0, 2, prob=0.5, type="ORG")]
        assert [s.key() for s in resolve(spans, nested=True)] == [(0, 2, "PER")]


@st.composite
def span_lists(draw):
    """Spans over a sentence of 1-20 characters, of any length up to the
    whole sentence, with probabilities that often tie and extents that often
    repeat under another type."""
    n = draw(st.integers(1, 20))
    prob = st.one_of(st.sampled_from([0.3, 0.5, 0.9]),
                     st.floats(0.0, 1.0, allow_nan=False))
    spans = []
    for _ in range(draw(st.integers(0, 30))):
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(start, n - 1))
        spans.append(span(start, end, draw(st.sampled_from(["PER", "ORG", "LOC"])),
                          draw(prob)))
    return spans


# spans far longer than any max_entity_len, equal extents of two types, and
# every probability tied
LONG_TIED = [span(0, 39, "PER", 0.5), span(0, 39, "ORG", 0.5),
             span(5, 30, "LOC", 0.5), span(20, 45, "PER", 0.5),
             span(45, 45, "ORG", 0.5), span(46, 90, "LOC", 0.5)]


def seeded_spans(seed: int, count: int) -> list[ScoredSpan]:
    """``count`` spans of up to 10 characters over 200 positions: every
    fifth repeats an earlier span's extent, and the probabilities come from
    a grid of four, so that many tie."""
    rng = np.random.default_rng(seed)
    spans = []
    for k in range(count):
        if k % 5 == 4:
            earlier = spans[int(rng.integers(0, k))]
            start, end = earlier.start, earlier.end
        else:
            start = int(rng.integers(0, 200))
            end = start + int(rng.integers(0, 10))
        spans.append(span(start, end, ("PER", "ORG", "LOC")[k % 3],
                          float(rng.choice([0.3, 0.5, 0.7, 0.9]))))
    return spans


# about as many spans as survive the threshold at rho 0 in a sentence of
# 200 characters
MANY_TIED = seeded_spans(339, 340)


class TestResolveMatchesReference:
    @given(spans=span_lists(), nested=st.booleans())
    @example(spans=[], nested=False)
    @example(spans=[], nested=True)
    @example(spans=LONG_TIED, nested=False)
    @example(spans=LONG_TIED, nested=True)
    @example(spans=MANY_TIED, nested=False)
    @example(spans=MANY_TIED, nested=True)
    def test_same_kept_spans_in_same_order(self, spans, nested):
        ours, theirs = resolve(spans, nested), ref.resolve(spans, nested)
        assert [id(s) for s in ours] == [id(s) for s in theirs]


class TestResolveInvariants:
    @given(spans=span_lists(), nested=st.booleans())
    def test_idempotent(self, spans, nested):
        once = resolve(spans, nested)
        assert resolve(once, nested) == once

    @given(spans=span_lists(), nested=st.booleans())
    def test_sorted_subset_of_input(self, spans, nested):
        kept = resolve(spans, nested)
        given_ids = {id(s) for s in spans}
        assert all(id(s) in given_ids for s in kept)
        assert len({id(s) for s in kept}) == len(kept)
        keys = [s.key() for s in kept]
        assert keys == sorted(keys)

    @given(spans=span_lists())
    def test_flat_never_overlaps(self, spans):
        kept = resolve(spans)
        assert all(a.end < b.start for a, b in zip(kept, kept[1:]))

    @given(spans=span_lists())
    def test_flat_keeps_no_span_inside_another_input(self, spans):
        for k in resolve(spans):
            assert not any(o.start <= k.start and k.end <= o.end
                           and (o.start, o.end) != (k.start, k.end)
                           for o in spans)

    @given(spans=span_lists())
    def test_nested_no_partial_overlap_or_repeated_extent(self, spans):
        kept = resolve(spans, nested=True)
        extents = [(s.start, s.end) for s in kept]
        assert len(set(extents)) == len(extents)
        for a, b in extents:
            for c, d in extents:
                assert not (a < c <= b < d)


class TestEvaluate:
    def test_worked_example(self):
        # 2 correct of 3 predicted, 4 gold: P=66.67, R=50.00, F1=57.14
        pred = [{(0, 1, "PER"), (3, 4, "ORG"), (6, 7, "LOC")}]
        gold = [{(0, 1, "PER"), (3, 4, "ORG"), (8, 9, "PER"), (10, 11, "LOC")}]
        p, r, f1 = evaluate(pred, gold)
        assert round(p * 100, 2) == 66.67
        assert round(r * 100, 2) == 50.00
        assert round(f1 * 100, 2) == 57.14

    def test_type_must_match(self):
        p, r, f1 = evaluate([{(0, 1, "PER")}], [{(0, 1, "ORG")}])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_empty_everything_is_zero_not_nan(self):
        assert evaluate([set()], [set()]) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        g = [{(0, 1, "PER")}, {(2, 3, "ORG")}]
        assert evaluate(g, g) == (1.0, 1.0, 1.0)

    def test_micro_pools_over_sentences(self):
        pred = [{(0, 1, "PER")}, set()]
        gold = [{(0, 1, "PER")}, {(0, 1, "PER")}]
        p, r, _ = evaluate(pred, gold)
        assert p == 1.0 and r == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([set()], [set(), set()])

    def test_by_type(self):
        pred = [{(0, 1, "PER"), (2, 3, "ORG")}]
        gold = [{(0, 1, "PER"), (4, 5, "ORG")}]
        by = evaluate_by_type(pred, gold)
        assert by["PER"] == (1.0, 1.0, 1.0)
        assert by["ORG"][2] == 0.0


class TestThresholdMonotonicity:
    def test_prediction_count_nonincreasing_in_rho(self):
        rng = np.random.default_rng(1)
        spans = [span(int(a), int(a + rng.integers(0, 3)),
                      prob=float(rng.random()), is_none=bool(rng.random() < 0.3))
                 for a in rng.integers(0, 30, 60)]
        counts = [len(filter_threshold(spans, rho))
                  for rho in np.arange(0.0, 1.0, 0.1)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
