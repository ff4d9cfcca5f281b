"""Character-level context encoders and fixed-size fragment encoders.

Every candidate span of length at most ``m`` gets one fixed-size vector.
Bag-of-words mean and forgetting encoding are linear in the character
vectors, so each is one product of a span coefficient matrix with the
character matrix. The span-local bidirectional LSTM enumerates spans
incrementally, reusing the state of shorter spans to build longer ones.
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

    @property
    def hidden(self) -> int:
        return self.b.shape[0] // 4

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        return ad.lstm_step(self.wx, self.wh, self.b, x, h, c)


def lstm_init(d_in: int, hidden: int, rng: np.random.Generator) -> LSTMCell:
    bound = 1.0 / np.sqrt(hidden)
    return LSTMCell(
        wx=ad.parameter(rng.uniform(-bound, bound, (4 * hidden, d_in))),
        wh=ad.parameter(rng.uniform(-bound, bound, (4 * hidden, hidden))),
        b=ad.parameter(np.zeros(4 * hidden)),
    )


def lstm_run(xs: list[Tensor], cell: LSTMCell, reverse: bool = False) -> list[Tensor]:
    """Hidden states aligned with ``xs``; ``reverse`` runs right to left."""
    h = ad.constant(np.zeros(cell.hidden))
    c = ad.constant(np.zeros(cell.hidden))
    states: list[Tensor] = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for idx in order:
        h, c = cell.step(xs[idx], h, c)
        states[idx] = h
    return states


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
    x = w
    for fwd, bwd in layers:
        xs = ad.unstack_rows(x)
        x = ad.hconcat(ad.stack_rows(lstm_run(xs, fwd)),
                       ad.stack_rows(lstm_run(xs, bwd, reverse=True)))
    return x


# ---------------------------------------------------------------------------
# fragment encoders
#
# Each takes the character vectors ``t``, as an n x d matrix or as its n
# rows, and returns the span vectors as the rows of a matrix, in the order
# of ``spans``.


def _span_cells(spans: list[Span]):
    """(span index, character index, span end, span length) of every
    character of every span, as parallel arrays."""
    starts = np.array([i for i, _ in spans], dtype=np.intp)
    ends = np.array([j for _, j in spans], dtype=np.intp)
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

    Forward chains are shared across spans with a common start; backward
    chains across spans with a common end.
    """
    rows = ad.unstack_rows(t) if isinstance(t, Tensor) else t
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for i, j in spans:
        starts[i] = max(starts.get(i, i), j)
        ends[j] = min(ends.get(j, j), i)
    zeros = ad.constant(np.zeros(fwd.hidden))
    fchain: dict[int, list[Tensor]] = {}
    for i, far in starts.items():
        h, c = zeros, zeros
        states = []
        for k in range(i, far + 1):
            h, c = fwd.step(rows[k], h, c)
            states.append(h)
        fchain[i] = states
    bzeros = ad.constant(np.zeros(bwd.hidden))
    bchain: dict[int, list[Tensor]] = {}
    for j, near in ends.items():
        h, c = bzeros, bzeros
        states = []
        for k in range(j, near - 1, -1):
            h, c = bwd.step(rows[k], h, c)
            states.append(h)
        bchain[j] = states
    return ad.hconcat(ad.stack_rows([fchain[i][j - i] for i, j in spans]),
                      ad.stack_rows([bchain[j][j - i] for i, j in spans]))
