"""Greedy decoding of span scores into a consistent entity set, plus scoring.

Decoding: threshold the per-span distributions, drop spans strictly
contained in another surviving span (outer wins, regardless of
probability), then resolve partial overlaps greedily by descending
probability. Nested mode skips the containment step so inner entities
survive.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ScoredSpan:
    start: int
    end: int          # inclusive
    type: str
    prob: float       # probability of the argmax class
    is_none: bool = False
    attention: tuple | None = None

    def key(self):
        return (self.start, self.end, self.type)


def filter_threshold(spans: list[ScoredSpan], rho: float) -> list[ScoredSpan]:
    """Keep spans whose argmax class is a real type with probability > rho."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {rho}")
    return [s for s in spans if not s.is_none and s.prob > rho]


def _contains(outer: ScoredSpan, inner: ScoredSpan) -> bool:
    return (outer.start <= inner.start and inner.end <= outer.end
            and (outer.start, outer.end) != (inner.start, inner.end))


def _overlaps(a: ScoredSpan, b: ScoredSpan) -> bool:
    return a.start <= b.end and b.start <= a.end


def resolve(spans: list[ScoredSpan], nested: bool = False) -> list[ScoredSpan]:
    """Final entity set; flat mode output is pairwise non-overlapping.

    Ties in probability break toward the earlier start, then the longer
    span.
    """
    if not nested:
        spans = [s for s in spans
                 if not any(_contains(o, s) for o in spans)]
    order = sorted(spans, key=lambda s: (-s.prob, s.start, s.start - s.end))
    kept: list[ScoredSpan] = []
    for cand in order:
        if nested:
            # containment in either direction is allowed
            clash = any(_overlaps(cand, k) and not _contains(k, cand)
                        and not _contains(cand, k)
                        and (cand.start, cand.end) != (k.start, k.end)
                        for k in kept)
            clash = clash or any((cand.start, cand.end) == (k.start, k.end)
                                 for k in kept)
        else:
            clash = any(_overlaps(cand, k) for k in kept)
        if not clash:
            kept.append(cand)
    kept.sort(key=lambda s: (s.start, s.end, s.type))
    return kept


def decode_corpus(scored: list[list[ScoredSpan]], rho: float,
                  nested: bool = False) -> list[list[ScoredSpan]]:
    """Each sentence's entities: its scored spans thresholded, then resolved."""
    return [resolve(filter_threshold(spans, rho), nested) for spans in scored]


def key_sets(decoded: list[list[ScoredSpan]]) -> list[set]:
    """The (start, end, type) keys of each sentence's spans, for ``evaluate``."""
    return [{s.key() for s in spans} for spans in decoded]


def evaluate(pred_sets: list[set], gold_sets: list[set]
             ) -> tuple[float, float, float]:
    """Micro precision/recall/F1 on exact (start, end, type) matches.

    Undefined ratios (zero denominator) are reported as 0.
    """
    if len(pred_sets) != len(gold_sets):
        raise ValueError(f"{len(pred_sets)} prediction sets vs "
                         f"{len(gold_sets)} gold sets")
    tp = fp = fn = 0
    for pred, gold in zip(pred_sets, gold_sets):
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def evaluate_by_type(pred_sets: list[set], gold_sets: list[set]
                     ) -> dict[str, tuple[float, float, float]]:
    types = sorted({t for g in gold_sets for _, _, t in g}
                   | {t for p in pred_sets for _, _, t in p})
    out = {}
    for t in types:
        out[t] = evaluate([{s for s in p if s[2] == t} for p in pred_sets],
                          [{s for s in g if s[2] == t} for g in gold_sets])
    return out
