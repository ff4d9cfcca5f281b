"""Tape-based reverse-mode automatic differentiation on dense float64 arrays.

The tape is define-by-run: operations execute eagerly and, when a tape is
active and any input is tracked, push a backward closure. Calling
``Tape.backward`` replays the closures in reverse execution order.
"""
from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration value is outside its documented domain."""


_TAPE_STACK: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """Dense float64 array with an optional same-shape gradient buffer.

    ``touched_rows`` is None, or a boolean mask over the rows of a 2-D
    parameter that is True where ``gather_rows`` sent gradient during the
    current step; the sparse Adam mode consumes it.
    """

    __slots__ = ("values", "grad", "tracked", "touched_rows")

    def __init__(self, values, tracked: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.tracked = tracked
        self.touched_rows: np.ndarray | None = None

    @property
    def shape(self):
        return self.values.shape

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        return self.grad

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)
        self.touched_rows = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, tracked={self.tracked})"


def parameter(values) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), tracked=True)


def constant(values) -> Tensor:
    return Tensor(values)


class Tape:
    """Ordered record of backward closures for one forward pass."""

    def __init__(self):
        self._records: list = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def record(self, backward):
        self._records.append(backward)

    def backward(self, out: Tensor):
        if out.values.ndim != 0:
            raise ShapeError(f"backward requires a scalar output, got shape {out.shape}")
        out.ensure_grad()
        out.grad += 1.0
        for fn in reversed(self._records):
            fn()


def _begin(out_values, *inputs) -> tuple[Tensor, Tape | None]:
    """Create the output tensor and decide whether to record a backward."""
    out = Tensor(out_values)
    tape = active_tape()
    if tape is None or not any(t.tracked for t in inputs):
        return out, None
    out.tracked = True
    out.ensure_grad()
    for t in inputs:
        if t.tracked:
            t.ensure_grad()
    return out, tape


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out, tape = _begin(a.values + b.values, a, b)
    if tape:
        def backward():
            if a.tracked:
                a.grad += out.grad
            if b.tracked:
                b.grad += out.grad
        tape.record(backward)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    out, tape = _begin(x.values * c, x)
    if tape:
        def backward():
            x.grad += out.grad * c
        tape.record(backward)
    return out


def tanh(x: Tensor) -> Tensor:
    out, tape = _begin(np.tanh(x.values), x)
    if tape:
        ov = out.values
        def backward():
            x.grad += out.grad * (1.0 - ov * ov)
        tape.record(backward)
    return out


def exp(x: Tensor) -> Tensor:
    out, tape = _begin(np.exp(x.values), x)
    if tape:
        ov = out.values
        def backward():
            x.grad += out.grad * ov
        tape.record(backward)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out, tape = _begin(a.values @ b.values, a, b)
    if tape:
        av, bv = a.values.copy(), b.values.copy()
        def backward():
            if a.tracked:
                a.grad += out.grad @ bv.T
            if b.tracked:
                b.grad += av.T @ out.grad
        tape.record(backward)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-batched affine map: (n, d_in) @ (d_out, d_in)^T + (d_out,)."""
    if x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    if b.values.ndim != 1 or b.shape[0] != w.shape[0]:
        raise ShapeError(f"linear: bias shape {b.shape} does not match {w.shape}")
    out, tape = _begin(x.values @ w.values.T + b.values, x, w, b)
    if tape:
        xv, wv = x.values.copy(), w.values.copy()
        def backward():
            if x.tracked:
                x.grad += out.grad @ wv
            if w.tracked:
                w.grad += out.grad.T @ xv
            if b.tracked:
                b.grad += out.grad.sum(axis=0)
        tape.record(backward)
    return out


def lstm_sequence(x: Tensor, index: np.ndarray, wx: Tensor, wh: Tensor,
                  b: Tensor) -> Tensor:
    """Hidden states of B LSTM chains from zero state, one tape node.

    Step ``t`` of chain ``b`` reads row ``index[b, t]`` of ``x``; row
    ``b T + t`` of the (B T) x h result is the state after that step. Gate
    rows of ``wx``, ``wh`` and ``b`` are laid out as 4h rows in i, f, g, o
    order, and a step computes ``(wx x + wh h) + b``. Each row of ``x`` is
    projected once. A state depends only on the steps before it, so chains
    of different lengths share one call: pad each at its tail and read no
    padded state, which then gets zero gradient.
    """
    idx = np.asarray(index, dtype=np.intp)
    four_h = b.shape[0] if b.values.ndim == 1 else -1
    hid = four_h // 4
    if (four_h % 4 or x.values.ndim != 2 or wx.shape != (four_h, x.shape[1])
            or wh.shape != (four_h, hid) or idx.ndim != 2):
        raise ShapeError(f"lstm_sequence: incompatible shapes x {x.shape}, index "
                         f"{idx.shape}, wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError("lstm_sequence: index out of range")
    n_seq, steps = idx.shape
    proj = x.values @ wx.values.T
    wh_t, bias = wh.values.T, b.values
    # gates[t] holds the i, f, g, o gates of step t, hs[t + 1] and cs[t + 1]
    # its states, and hs[0] and cs[0] the zero start
    gates = np.empty((steps, 4, n_seq, hid))
    hs, cs = np.zeros((2, steps + 1, n_seq, hid))
    tcs = np.empty((steps, n_seq, hid))
    for t in range(steps):
        pre = ((proj[idx[:, t]] + hs[t] @ wh_t) + bias).reshape(n_seq, 4, hid)
        i, f, g, o = act = gates[t]
        np.divide(1.0, 1.0 + np.exp(-pre.transpose(1, 0, 2)), out=act)
        np.tanh(pre[:, 2], out=g)
        cs[t + 1] = f * cs[t] + i * g
        np.tanh(cs[t + 1], out=tcs[t])
        hs[t + 1] = o * tcs[t]
    out, tape = _begin(hs[1:].transpose(1, 0, 2).reshape(n_seq * steps, hid),
                       x, wx, wh, b)
    if tape:
        xv, wxv, whv = x.values.copy(), wx.values.copy(), wh.values.copy()
        def backward():
            g_out = out.grad.reshape(n_seq, steps, hid)
            dpre = np.empty((steps, n_seq, four_h))
            dh, dc = np.zeros((2, n_seq, hid))
            for t in range(steps - 1, -1, -1):
                i, f, g, o = gates[t]
                dh = dh + g_out[:, t]
                dc = dc + dh * o * (1.0 - tcs[t] * tcs[t])
                dpre[t] = np.concatenate([dc * g * i * (1.0 - i), dc * cs[t] * f * (1.0 - f),
                                          dc * i * (1.0 - g * g), dh * tcs[t] * o * (1.0 - o)],
                                         axis=1)
                dh = dpre[t] @ whv
                dc = dc * f
            flat = dpre.reshape(steps * n_seq, four_h)
            if wh.tracked:
                wh.grad += flat.T @ hs[:-1].reshape(steps * n_seq, hid)
            if b.tracked:
                b.grad += flat.sum(axis=0)
            if x.tracked or wx.tracked:
                d_proj = np.zeros_like(proj)
                np.add.at(d_proj, idx.T.ravel(), flat)
                if wx.tracked:
                    wx.grad += d_proj.T @ xv
                if x.tracked:
                    x.grad += d_proj @ wxv
        tape.record(backward)
    return out


# ---------------------------------------------------------------------------
# structural ops


def hconcat(*parts: Tensor) -> Tensor:
    """Matrices with equal row counts, side by side."""
    if not parts or any(p.values.ndim != 2 or p.shape[0] != parts[0].shape[0]
                        for p in parts):
        raise ShapeError(f"hconcat: incompatible shapes {[p.shape for p in parts]}")
    out, tape = _begin(np.concatenate([p.values for p in parts], axis=1), *parts)
    if tape:
        def backward():
            lo = 0
            for p in parts:
                hi = lo + p.shape[1]
                if p.tracked:
                    p.grad += out.grad[:, lo:hi]
                lo = hi
        tape.record(backward)
    return out


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Batched embedding fetch. Duplicate indices accumulate on backward."""
    idx = np.asarray(indices, dtype=np.intp)
    out, tape = _begin(table.values[idx], table)
    if tape:
        def backward():
            np.add.at(table.grad, idx, out.grad)
            if table.touched_rows is None:
                table.touched_rows = np.zeros(table.shape[0], dtype=bool)
            table.touched_rows[idx] = True
        tape.record(backward)
    return out


# ---------------------------------------------------------------------------
# softmax family and attention


def softmax_rows(x: Tensor) -> Tensor:
    if x.values.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"softmax_rows: expected a nonempty matrix, got shape {x.shape}")
    shifted = x.values - x.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out, tape = _begin(e / e.sum(axis=1, keepdims=True), x)
    if tape:
        p = out.values
        def backward():
            g = out.grad
            x.grad += p * (g - (p * g).sum(axis=1, keepdims=True))
        tape.record(backward)
    return out


def _segment_sum(values: np.ndarray, starts: np.ndarray, ids: np.ndarray,
                 out: np.ndarray):
    """Add the sums of the runs of ``values`` that begin at ``starts`` to
    the rows ``ids`` of ``out``."""
    if len(starts):
        out[ids] += np.add.reduceat(values, starts, axis=0)


def memory_attention(f: Tensor, w_attn: Tensor, memory: Tensor, row_span: np.ndarray,
                     null_rows: Tensor, null_mask: np.ndarray
                     ) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Scaled bilinear attention of every span over its own memory, one tape node.

    Span ``s`` (row ``s`` of ``f``) attends over its real rows, the rows of
    ``memory`` whose entry in the sorted ``row_span`` is ``s``, and over the
    rows of ``null_rows`` that ``null_mask[s]`` selects. A row ``r`` scores
    ``r . (f_s W) / sqrt(d_m)``; the context is the softmax-weighted sum of
    the rows. Returns the context matrix (n_spans x d_m) and the weights:
    one per real row, and an n_spans x n_null matrix that is zero outside
    ``null_mask``.
    """
    row_span = np.asarray(row_span, dtype=np.intp)
    null_mask = np.asarray(null_mask, dtype=bool)
    n = f.shape[0] if f.values.ndim == 2 else -1
    d_m = w_attn.shape[1] if w_attn.values.ndim == 2 else -1
    if (n < 0 or d_m < 0 or w_attn.shape[0] != f.shape[1]
            or memory.shape != (len(row_span), d_m) or null_rows.values.ndim != 2
            or null_rows.shape[1] != d_m or null_mask.shape != (n, null_rows.shape[0])):
        raise ShapeError(f"memory_attention: incompatible shapes f {f.shape}, "
                         f"w_attn {w_attn.shape}, memory {memory.shape}, "
                         f"{len(row_span)} row spans, null_rows {null_rows.shape}, "
                         f"null_mask {null_mask.shape}")
    if len(row_span) and (row_span[0] < 0 or row_span[-1] >= n
                          or np.any(row_span[1:] < row_span[:-1])):
        raise ShapeError("memory_attention: row span ids must be sorted and in range")
    if np.any(np.bincount(row_span, minlength=n) + null_mask.sum(axis=1) == 0):
        raise ShapeError("memory_attention: a span has no memory row")
    starts = np.flatnonzero(np.diff(row_span, prepend=-1))
    ids = row_span[starts]
    inv = 1.0 / math.sqrt(d_m)
    mem, nul = memory.values, null_rows.values
    q = f.values @ w_attn.values
    q_row = q[row_span]
    s_real = np.einsum("rd,rd->r", mem, q_row) * inv
    s_null = np.where(null_mask, (q @ nul.T) * inv, -np.inf)
    top = s_null.max(axis=1)
    if len(starts):
        top[ids] = np.maximum(top[ids], np.maximum.reduceat(s_real, starts))
    e_real = np.exp(s_real - top[row_span])
    e_null = np.exp(s_null - top[:, None])
    z = e_null.sum(axis=1)
    _segment_sum(e_real, starts, ids, z)
    p_real = e_real / z[row_span]
    p_null = e_null / z[:, None]
    ctx = p_null @ nul
    _segment_sum(p_real[:, None] * mem, starts, ids, ctx)
    out, tape = _begin(ctx, f, w_attn, memory, null_rows)
    if tape:
        fv, wv, mem, nul = f.values.copy(), w_attn.values.copy(), mem.copy(), nul.copy()
        def backward():
            g = out.grad
            g_row = g[row_span]
            dp_real = np.einsum("rd,rd->r", mem, g_row)
            dp_null = g @ nul.T
            dot = (p_null * dp_null).sum(axis=1)
            _segment_sum(p_real * dp_real, starts, ids, dot)
            ds_real = p_real * (dp_real - dot[row_span]) * inv
            ds_null = p_null * (dp_null - dot[:, None]) * inv
            dq = ds_null @ nul
            _segment_sum(ds_real[:, None] * mem, starts, ids, dq)
            if f.tracked:
                f.grad += dq @ wv.T
            if w_attn.tracked:
                w_attn.grad += fv.T @ dq
            if memory.tracked:
                memory.grad += p_real[:, None] * g_row + ds_real[:, None] * q_row
            if null_rows.tracked:
                null_rows.grad += p_null.T @ g + ds_null.T @ q
        tape.record(backward)
    return out, (p_real, p_null)


# ---------------------------------------------------------------------------
# regularization / loss


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
            training: bool) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode requires a seeded generator")
    mask = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    out, tape = _begin(x.values * mask, x)
    if tape:
        def backward():
            x.grad += out.grad * mask
        tape.record(backward)
    return out


_PT_FLOOR = 1e-12


def focal_loss_rows(probs: Tensor, targets: np.ndarray, alpha: Tensor,
                    gamma: float) -> Tensor:
    """Summed focal loss -a_t (1-p_t)^g log(p_t) over rows of a prob matrix.

    ``alpha`` is a per-class positive weight vector; ``gamma`` >= 0 is fixed.
    With gamma = 0 and unit alpha this is exactly summed cross-entropy.
    p_t is clamped to [1e-12, 1]; gradient is cut where the clamp binds.
    """
    if gamma < 0:
        raise ConfigError(f"gamma must be nonnegative, got {gamma}")
    tgt = np.asarray(targets, dtype=np.intp)
    if probs.values.ndim != 2 or tgt.shape[0] != probs.shape[0]:
        raise ShapeError(f"focal_loss_rows: probs {probs.shape} vs {tgt.shape[0]} targets")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= probs.shape[1]):
        raise ValueError("focal_loss_rows: target class out of range")
    rows = np.arange(tgt.shape[0])
    pt_raw = probs.values[rows, tgt]
    pt = np.clip(pt_raw, _PT_FLOOR, 1.0)
    a_t = alpha.values[tgt]
    one_m = 1.0 - pt
    pow_g = one_m ** gamma
    logpt = np.log(pt)
    losses = -a_t * pow_g * logpt
    out, tape = _begin(losses.sum(), probs, alpha)
    if tape:
        def backward():
            g = float(out.grad)
            if gamma > 0.0:
                safe = np.zeros_like(one_m)
                pos = one_m > 0.0
                safe[pos] = one_m[pos] ** (gamma - 1.0)
                # limit of (1-p)^(g-1) log p at p -> 1 is 0 for g > 0
                dpt = a_t * (gamma * safe * logpt - pow_g / pt)
            else:
                dpt = -a_t / pt
            clamp_open = (pt_raw >= _PT_FLOOR) & (pt_raw <= 1.0)
            if probs.tracked:
                probs.grad[rows, tgt] += g * dpt * clamp_open
            if alpha.tracked:
                np.add.at(alpha.grad, tgt, g * (-pow_g * logpt))
        tape.record(backward)
    return out
