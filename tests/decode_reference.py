"""List-based reference of ``decode.resolve``.

``resolve`` sweeps sorted extents for containment and tests each greedy
candidate against indexes of the kept spans. This module keeps the decoder
it replaced, which compares every pair of spans, for the tests to compare
against.
"""
from lexner.decode import ScoredSpan


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
