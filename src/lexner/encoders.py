"""Character-level context encoders and fixed-size fragment encoders.

Every candidate span of length at most ``m`` gets one fixed-size vector.
Bag-of-words mean and forgetting encoding are linear in the character
vectors, so each is one product of a span coefficient matrix with the
character matrix. The span-local bidirectional LSTM runs a batch of
forward chains, one from every start, and a batch of backward chains, one
from every end, in two sequence ops; each span reads one state of each.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor

Span = tuple[int, int]


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
# LSTM machinery


@dataclass
class LSTMCell:
    """Gate weights laid out as 4h rows in i, f, g, o order."""

    wx: Tensor
    wh: Tensor
    b: Tensor


def lstm_init(d_in: int, hidden: int, rng: np.random.Generator) -> LSTMCell:
    bound = 1.0 / np.sqrt(hidden)
    return LSTMCell(
        wx=ad.parameter(rng.uniform(-bound, bound, (4 * hidden, d_in))),
        wh=ad.parameter(rng.uniform(-bound, bound, (4 * hidden, hidden))),
        b=ad.parameter(np.zeros(4 * hidden)),
    )


def lstm_run(xs: list[Tensor], cell: LSTMCell, reverse: bool = False) -> list[Tensor]:
    """Hidden states aligned with ``xs``; ``reverse`` runs right to left."""
    order = np.arange(len(xs))[::-1] if reverse else np.arange(len(xs))
    states = ad.lstm_sequence(ad.stack_rows(xs), order[None], cell.wx, cell.wh, cell.b)
    return [ad.gather_rows(states, k) for k in order]


# ---------------------------------------------------------------------------
# character encoders


def encode_characters(w: Tensor, mode: str,
                      layers: list[tuple[LSTMCell, LSTMCell]] | None = None
                      ) -> Tensor:
    """Context-aware character vectors, one row per character.

    ``baseline`` returns the embedding matrix unchanged. ``birnn`` stacks
    bidirectional LSTM layers (forward cell, backward cell per layer) and
    concatenates the two top-layer states per position.
    """
    if mode == "baseline":
        return w
    if mode != "birnn":
        raise ConfigError(f"unknown character encoder {mode!r}")
    if not layers:
        raise ConfigError("birnn character encoder requires LSTM layers")
    right = np.arange(w.shape[0])[None]
    left = right[:, ::-1]
    x = w
    for fwd, bwd in layers:
        # state t of the leftward chain belongs to position n - 1 - t
        f = ad.lstm_sequence(x, right, fwd.wx, fwd.wh, fwd.b)
        b = ad.lstm_sequence(x, left, bwd.wx, bwd.wh, bwd.b)
        x = ad.hconcat(f, ad.gather_rows(b, left[0]))
    return x


# ---------------------------------------------------------------------------
# fragment encoders
#
# Each takes the character vectors ``t``, as an n x d matrix or as its n
# rows, and returns the span vectors as the rows of a matrix, in the order
# of ``spans``.


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


def _combine(t: Tensor | list[Tensor], spans: list[Span], coefficient) -> Tensor:
    """``C @ T`` for the span coefficient matrix ``C[s, k]`` =
    ``coefficient(end of s, k, length of s)`` over the characters k of s."""
    matrix = t if isinstance(t, Tensor) else ad.stack_rows(t)
    n = matrix.shape[0]
    rows, cols, ends, lengths = _span_cells(spans)
    c = np.zeros((len(spans), n))
    c[rows, cols] = coefficient(ends, cols, lengths)
    return ad.matmul(ad.constant(c), matrix)


def encode_fragments_bow(t: Tensor | list[Tensor], spans: list[Span]) -> Tensor:
    """Mean of the span's character vectors."""
    return _combine(t, spans, lambda ends, k, lengths: 1.0 / lengths)


def encode_fragments_fofe(t: Tensor | list[Tensor], spans: list[Span],
                          alpha: float) -> Tensor:
    """Forgetting encoding z_k = alpha * z_{k-1} + t_k, in its closed form:
    span (i, j) is the sum of alpha^(j-k) t_k over i <= k <= j."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"forgetting factor must lie in (0, 1), got {alpha}")
    return _combine(t, spans, lambda ends, k, lengths: alpha ** (ends - k))


def encode_fragments_birnn(t: Tensor | list[Tensor], spans: list[Span],
                           fwd: LSTMCell, bwd: LSTMCell) -> Tensor:
    """Final forward state ++ final backward state of a span-local BiLSTM.

    One batch of forward chains runs from every start and one of backward
    chains from every end, each as long as the longest span; span (i, j)
    reads step j - i of the chain from i and of the chain from j. A chain
    that runs past the sentence's edge repeats the edge character; no span
    reads those states.
    """
    x = t if isinstance(t, Tensor) else ad.stack_rows(t)
    n = x.shape[0]
    starts, ends = _span_bounds(spans)
    steps = int((ends - starts).max()) + 1
    origin, step = np.arange(n)[:, None], np.arange(steps)
    f = ad.lstm_sequence(x, np.minimum(origin + step, n - 1), fwd.wx, fwd.wh, fwd.b)
    b = ad.lstm_sequence(x, np.maximum(origin - step, 0), bwd.wx, bwd.wh, bwd.b)
    return ad.hconcat(ad.gather_rows(f, starts * steps + ends - starts),
                      ad.gather_rows(b, ends * steps + ends - starts))
