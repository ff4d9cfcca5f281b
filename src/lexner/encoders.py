"""Character-level context encoders and fixed-size fragment encoders.

All take the character vectors as the rows of one matrix and LSTM weights
as ``(wx, wh, b)`` parameter triples. The matrix may stack the characters
of several sentences, sentence after sentence; an encoder that runs chains
is told their row counts and never lets a chain cross from one sentence
into the next. Every span of length at most ``m`` gets one vector:
bag-of-words and forgetting encoding, linear in the character vectors, as
weighted sums of runs of rows (of any projection of the character vectors,
which the model pools in their place); the span-local BiLSTM as forward chains
from every start and backward chains from every end, in one bidirectional
sequence op, each span reading one state of each.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor

Span = tuple[int, int]
# LSTM weights (wx, wh, b), gate rows in i, f, g, o order
Cell = tuple[Tensor, Tensor, Tensor]


def fragment_count(n, m: int):
    """Number of spans of length <= m in a sentence of n characters; n may
    be an array of sentence lengths."""
    m = np.minimum(m, n)
    return m * (2 * n - m + 1) // 2


def fragment_rows(lengths, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every span of at most ``m`` rows of each sentence, the sentences of
    ``lengths`` rows stacked sentence after sentence: each span's first and
    last row, as two arrays ordered by first row and then last."""
    lengths = np.asarray(lengths, dtype=np.intp)
    rows = np.arange(lengths.sum())
    # spans from each row: m, or fewer when its sentence ends first
    per_row = np.minimum(lengths.cumsum().repeat(lengths) - rows, m)
    starts = rows.repeat(per_row)
    # a span's end is its row plus its offset among the spans of its row
    ends = np.arange(len(starts)) - (per_row.cumsum() - per_row - rows).repeat(per_row)
    return starts, ends


# ---------------------------------------------------------------------------
# character features


def char_feature_vectors(char_ids, seg_ids, pos_ids, emb_char: Tensor,
                         emb_seg: Tensor, emb_pos: Tensor,
                         dropout_rate: float = 0.0,
                         rng: np.random.Generator | None = None) -> Tensor:
    """Per-character vectors as the rows of an n x d_w matrix: char ++
    soft-word ++ POS embeddings, with dropout at ``dropout_rate`` applied
    at this embedding layer when the rate is positive."""
    w = ad.hconcat(ad.gather_rows(emb_char, char_ids), ad.gather_rows(emb_seg, seg_ids),
                   ad.gather_rows(emb_pos, pos_ids))
    return ad.dropout(w, dropout_rate, rng)


# ---------------------------------------------------------------------------
# character encoders


def encode_characters(w: Tensor, layers: list[tuple[Cell, Cell]],
                      lengths: np.ndarray) -> Tensor:
    """Context-aware character vectors, one row per character.

    ``lengths`` gives the row counts of the sentences stacked in ``w``.
    With no layers this is the baseline encoder: the embedding matrix
    unchanged. Otherwise it stacks bidirectional LSTM layers (forward cell,
    backward cell per layer), one ``bilstm_sequence`` op per layer with
    each direction one chain per sentence, each layer's row being the two
    states of its position side by side.
    """
    if not layers:
        return w
    lengths = np.asarray(lengths)
    first = np.cumsum(lengths) - lengths
    steps = np.arange(lengths.max())
    # a chain that has read its whole sentence repeats the row it ended on;
    # no position reads those states
    right = first[:, None] + np.minimum(steps, lengths[:, None] - 1)
    left = first[:, None] + np.maximum(lengths[:, None] - 1 - steps, 0)
    # position p of sentence k is state p of its rightward chain and state
    # n_k - 1 - p of its leftward one
    sent = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(w.shape[0]) - first[sent]
    index = np.stack([right, left])
    read = sent * len(steps) + np.stack([pos, lengths[sent] - 1 - pos])
    for fwd, bwd in layers:
        w = ad.bilstm_sequence(w, index, read, fwd, bwd)
    return w


# ---------------------------------------------------------------------------
# fragment encoders
#
# Each takes the character vectors as the rows of an n x d matrix ``t`` and
# the spans as (first row, last row) pairs, and returns the span vectors as
# the rows of a matrix, in the order of ``spans``.


def _span_bounds(spans) -> np.ndarray:
    """Start and end of every span, as the two rows of an index array."""
    return np.asarray(spans, dtype=np.intp).reshape(-1, 2).T


def encode_fragments_bow(t: Tensor, spans: list[Span]) -> Tensor:
    """Mean of the span's rows of ``t``. The mean is linear, so the model
    pools character rows already projected by the attention bilinear and
    the head's first layer: the mean of the projections is the projection
    of the mean."""
    starts, ends = _span_bounds(spans)
    return ad.span_sums(t, starts, ends - starts + 1, mean=True)


def encode_fragments_fofe(t: Tensor, spans: list[Span],
                          alpha: float) -> Tensor:
    """Forgetting encoding z_k = alpha * z_{k-1} + t_k, in its closed form:
    span (i, j) is the sum of alpha^(j-k) t_k over i <= k <= j. The sum is
    linear, so the model pools projected character rows, as for
    ``encode_fragments_bow``."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"forgetting factor must lie in (0, 1), got {alpha}")
    starts, ends = _span_bounds(spans)
    return ad.span_sums(t, starts, ends - starts + 1, alpha)


def encode_fragments_birnn(t: Tensor, spans: list[Span], fwd: Cell, bwd: Cell,
                           lengths: np.ndarray) -> Tensor:
    """Final forward state ++ final backward state of a span-local BiLSTM.

    One batch of forward chains runs from every row and one of backward
    chains from every row, in one ``bilstm_sequence`` op, each chain as
    long as the longest span; span (i, j) reads step j - i of the chain
    from i and of the chain from j. A chain that runs past its sentence's
    edge repeats the edge character, so it reads no row of another
    sentence; no span reads those states.
    ``lengths`` gives the row counts of the sentences stacked in ``t``.
    """
    n = t.shape[0]
    lengths = np.asarray(lengths)
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    last = first + np.repeat(lengths, lengths) - 1
    starts, ends = _span_bounds(spans)
    steps = int((ends - starts).max()) + 1
    origin, step = np.arange(n)[:, None], np.arange(steps)
    index = np.stack([np.minimum(origin + step, last[:, None]),
                      np.maximum(origin - step, first[:, None])])
    return ad.bilstm_sequence(t, index, np.stack([starts, ends]) * steps + ends - starts,
                              fwd, bwd)
