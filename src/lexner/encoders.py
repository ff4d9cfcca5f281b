"""Character-level context encoders and fixed-size fragment encoders.

All take the character vectors as the rows of one matrix and LSTM weights
as ``(wx, wh, b)`` parameter triples. Every span of length at most ``m``
gets one vector: bag-of-words and forgetting encoding, linear in the
character vectors, as a span coefficient matrix times that matrix; the
span-local BiLSTM as forward chains from every start and backward chains
from every end, in two sequence ops, each span reading one state of each.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor

Span = tuple[int, int]
# LSTM weights (wx, wh, b), gate rows in i, f, g, o order
Cell = tuple[Tensor, Tensor, Tensor]


def fragment_count(n: int, m: int) -> int:
    """Number of spans of length <= m in a sentence of n characters."""
    m = min(m, n)
    return m * (2 * n - m + 1) // 2


def enumerate_fragments(n: int, m: int) -> list[Span]:
    """All (i, j) with 0 <= i <= j < n and j - i + 1 <= m, ordered by start."""
    return [(i, j) for i in range(n) for j in range(i, min(i + m, n))]


# ---------------------------------------------------------------------------
# character features


def char_feature_vectors(char_ids, seg_ids, pos_ids, emb_char: Tensor,
                         emb_seg: Tensor, emb_pos: Tensor,
                         dropout_rate: float = 0.0,
                         rng: np.random.Generator | None = None,
                         training: bool = False) -> Tensor:
    """Per-character vectors as the rows of an n x d_w matrix: char ++
    soft-word ++ POS embeddings, with dropout applied at this embedding
    layer during training."""
    w = ad.hconcat(ad.gather_rows(emb_char, char_ids), ad.gather_rows(emb_seg, seg_ids),
                   ad.gather_rows(emb_pos, pos_ids))
    return ad.dropout(w, dropout_rate, rng, training)


# ---------------------------------------------------------------------------
# character encoders


def encode_characters(w: Tensor, layers: list[tuple[Cell, Cell]]) -> Tensor:
    """Context-aware character vectors, one row per character.

    With no layers this is the baseline encoder: the embedding matrix
    unchanged. Otherwise it stacks bidirectional LSTM layers (forward cell,
    backward cell per layer) and concatenates the two top-layer states per
    position.
    """
    right = np.arange(w.shape[0])[None]
    left = right[:, ::-1]
    for fwd, bwd in layers:
        # state t of the leftward chain belongs to position n - 1 - t
        f = ad.lstm_sequence(w, right, *fwd)
        b = ad.lstm_sequence(w, left, *bwd)
        w = ad.hconcat(f, ad.gather_rows(b, left[0]))
    return w


# ---------------------------------------------------------------------------
# fragment encoders
#
# Each takes the character vectors as the rows of an n x d matrix ``t`` and
# returns the span vectors as the rows of a matrix, in the order of
# ``spans``.


def _span_bounds(spans: list[Span]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of every span, as two index arrays."""
    return (np.array([i for i, _ in spans], dtype=np.intp),
            np.array([j for _, j in spans], dtype=np.intp))


def _span_cells(spans: list[Span]):
    """(span index, character index, span end, span length) of every
    character of every span, as parallel arrays."""
    starts, ends = _span_bounds(spans)
    lengths = ends - starts + 1
    rows = np.repeat(np.arange(len(spans)), lengths)
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    cols = np.arange(len(rows)) - first + starts[rows]
    return rows, cols, ends[rows], lengths[rows]


def _combine(t: Tensor, spans: list[Span], coefficient) -> Tensor:
    """``C @ T`` for the span coefficient matrix ``C[s, k]`` =
    ``coefficient(end of s, k, length of s)`` over the characters k of s."""
    rows, cols, ends, lengths = _span_cells(spans)
    c = np.zeros((len(spans), t.shape[0]))
    c[rows, cols] = coefficient(ends, cols, lengths)
    return ad.matmul(ad.constant(c), t)


def encode_fragments_bow(t: Tensor, spans: list[Span]) -> Tensor:
    """Mean of the span's character vectors."""
    return _combine(t, spans, lambda ends, k, lengths: 1.0 / lengths)


def encode_fragments_fofe(t: Tensor, spans: list[Span],
                          alpha: float) -> Tensor:
    """Forgetting encoding z_k = alpha * z_{k-1} + t_k, in its closed form:
    span (i, j) is the sum of alpha^(j-k) t_k over i <= k <= j."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"forgetting factor must lie in (0, 1), got {alpha}")
    return _combine(t, spans, lambda ends, k, lengths: alpha ** (ends - k))


def encode_fragments_birnn(t: Tensor, spans: list[Span],
                           fwd: Cell, bwd: Cell) -> Tensor:
    """Final forward state ++ final backward state of a span-local BiLSTM.

    One batch of forward chains runs from every start and one of backward
    chains from every end, each as long as the longest span; span (i, j)
    reads step j - i of the chain from i and of the chain from j. A chain
    that runs past the sentence's edge repeats the edge character; no span
    reads those states.
    """
    n = t.shape[0]
    starts, ends = _span_bounds(spans)
    steps = int((ends - starts).max()) + 1
    origin, step = np.arange(n)[:, None], np.arange(steps)
    f = ad.lstm_sequence(t, np.minimum(origin + step, n - 1), *fwd)
    b = ad.lstm_sequence(t, np.maximum(origin - step, 0), *bwd)
    return ad.hconcat(ad.gather_rows(f, starts * steps + ends - starts),
                      ad.gather_rows(b, ends * steps + ends - starts))
