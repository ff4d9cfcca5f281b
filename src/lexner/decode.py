"""Greedy decoding of span scores into a consistent entity set, plus scoring.

Decoding: threshold the per-span distributions, drop spans strictly
contained in another surviving span (outer wins, regardless of
probability), then resolve partial overlaps greedily by descending
probability. Nested mode skips the containment step so inner entities
survive.

Both steps are sweeps, so decoding s spans costs O(s log s) sorting plus
clash tests bounded by the span lengths. Containment sorts the distinct
extents by (start, -end) and keeps a running maximum of the ends swept so
far. The greedy step marks the characters each kept span covers (flat), or
indexes the kept spans by start and by end (nested), so testing a
candidate reads only the positions inside it.
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


def resolve(spans: list[ScoredSpan], nested: bool = False) -> list[ScoredSpan]:
    """Final entity set; flat mode output is pairwise non-overlapping.

    Ties in probability break toward the earlier start, then the longer
    span. The output is sorted by (start, end, type).
    """
    if not spans:   # often nothing survives the threshold; skip the set-up
        return []
    if not nested:
        spans = _drop_contained(spans)
    order = sorted(spans, key=lambda s: (-s.prob, s.start, s.start - s.end))
    kept: list[ScoredSpan] = []
    size = max(s.end for s in spans) + 1
    if nested:
        extents: set[tuple[int, int]] = set()
        # over the kept spans: the furthest end of those starting at each
        # position, and the earliest start of those ending at each position
        last_end = [-1] * size
        first_start = [size] * size
        for cand in order:
            i, j = cand.start, cand.end
            if ((i, j) in extents
                    or max(last_end[i + 1:j + 1], default=-1) > j
                    or min(first_start[i:j], default=size) < i):
                continue
            kept.append(cand)
            extents.add((i, j))
            last_end[i] = max(last_end[i], j)
            first_start[j] = min(first_start[j], i)
    else:
        taken = bytearray(size)
        for cand in order:
            i, j = cand.start, cand.end
            if not any(taken[i:j + 1]):
                kept.append(cand)
                taken[i:j + 1] = b"\x01" * (j + 1 - i)
    kept.sort(key=lambda s: (s.start, s.end, s.type))
    return kept


def _drop_contained(spans: list[ScoredSpan]) -> list[ScoredSpan]:
    """The spans whose extent lies inside no other, different extent."""
    contained = set()
    reach = -1      # furthest end among the extents swept so far
    for start, end in sorted({(s.start, s.end) for s in spans},
                             key=lambda e: (e[0], -e[1])):
        if reach >= end:
            contained.add((start, end))
        reach = max(reach, end)
    return [s for s in spans if (s.start, s.end) not in contained]


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
