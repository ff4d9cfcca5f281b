"""Tape-based reverse-mode automatic differentiation on dense float64 arrays.

The tape is define-by-run: operations execute eagerly and, when a tape is
active and any input is tracked, push a backward closure. Calling
``Tape.backward`` replays the closures in reverse execution order.
"""
from __future__ import annotations

import itertools
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


def _row_sums(x: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """An n-row array whose row ``r`` sums, in input order, the rows of
    ``x`` whose entry in ``rows`` is ``r``: one ``np.bincount`` over (row,
    column) cells, so into zeros it gives the bits of ``np.add.at``."""
    width = math.prod(x.shape[1:])
    cells = (rows[:, None] * width + np.arange(width)).ravel()
    return np.bincount(cells, x.ravel(), minlength=n * width).reshape(n, *x.shape[1:])


# ---------------------------------------------------------------------------
# elementwise


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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None,
           add: Tensor | None = None) -> Tensor:
    """Row-batched affine map: (n, d_in) @ (d_out, d_in)^T, plus the bias
    row ``b`` (d_out,) and then the matrix ``add`` (n, d_out) when given."""
    if x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    if b is not None and (b.values.ndim != 1 or b.shape[0] != w.shape[0]):
        raise ShapeError(f"linear: bias shape {b.shape} does not match {w.shape}")
    if add is not None and add.shape != (x.shape[0], w.shape[0]):
        raise ShapeError(f"linear: added shape {add.shape} does not match "
                         f"{(x.shape[0], w.shape[0])}")
    y = x.values @ w.values.T
    inputs = [x, w]
    for term in (b, add):
        if term is not None:
            y += term.values
            inputs.append(term)
    out, tape = _begin(y, *inputs)
    if tape:
        xv, wv = x.values.copy(), w.values.copy()
        def backward():
            if x.tracked:
                x.grad += out.grad @ wv
            if w.tracked:
                w.grad += out.grad.T @ xv
            if b is not None and b.tracked:
                b.grad += out.grad.sum(axis=0)
            if add is not None and add.tracked:
                add.grad += out.grad
        tape.record(backward)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (n, k) @ (k, d)."""
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


def span_sums(x: Tensor, starts: np.ndarray, lengths: np.ndarray,
              decay: float = 1.0, mean: bool = False) -> Tensor:
    """Weighted sums of distinct runs of rows of ``x``, one tape node.

    Row ``s`` of the result sums the ``lengths[s]`` rows of ``x`` from row
    ``starts[s]`` on, the row ``k`` places before the last weighted
    ``decay ** k``, and divides the sum by the length when ``mean``. The
    runs of every length are built at once over shifted slices of the
    rows, one length from the one before (``acc_k = decay * acc_{k-1} +
    x`` shifted by k - 1 rows), and each run reads one row of them. So the
    cost is a pass over ``x`` per length, never a runs x rows matrix.
    """
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    if x.values.ndim != 2 or starts.ndim != 1 or starts.shape != lengths.shape:
        raise ShapeError(f"span_sums: incompatible shapes x {x.shape}, "
                         f"starts {starts.shape}, lengths {lengths.shape}")
    n, d = x.shape
    if len(starts) and (starts.min() < 0 or lengths.min() < 1
                        or (starts + lengths).max() > n):
        raise ShapeError("span_sums: run out of range")
    longest = int(lengths.max(initial=1))
    # run (i, k) is acc[k - 1, i], row ``flat`` of acc seen as a matrix;
    # acc[k - 1, i] for i > n - k is never set or read
    flat = (lengths - 1) * n + starts
    if np.bincount(flat, minlength=1).max() > 1:
        raise ShapeError("span_sums: a run is given twice")
    acc = np.empty((longest, n, d))
    acc[0] = x.values
    for k in range(1, longest):
        np.multiply(acc[k - 1, :n - k], decay, out=acc[k, :n - k])
        acc[k, :n - k] += x.values[k:]
    sums = acc.reshape(-1, d)[flat]
    if mean:
        sums /= lengths[:, None]
    out, tape = _begin(sums, x)
    if tape:
        def backward():
            d_acc = np.zeros((longest, n, d))
            d_acc.reshape(-1, d)[flat] = out.grad / lengths[:, None] if mean else out.grad
            for k in range(longest - 1, 0, -1):
                d_acc[k - 1, :n - k] += decay * d_acc[k, :n - k]
                x.grad[k:] += d_acc[k, :n - k]
            x.grad += d_acc[0]
        tape.record(backward)
    return out


def bilstm_sequence(x: Tensor, index: np.ndarray, read: np.ndarray,
                    fwd: tuple[Tensor, Tensor, Tensor],
                    bwd: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """One bidirectional LSTM layer: B chains from zero state in each of
    two directions, run in one step loop, one tape node.

    Direction 0 runs the ``fwd`` cell and direction 1 the ``bwd`` cell,
    each a ``(wx, wh, b)`` triple whose gate rows are laid out as 4h rows
    in i, f, g, o order; a step computes ``(wx x + wh h) + b``. Step ``t``
    of chain ``c`` of direction ``d`` reads row ``index[d, c, t]`` of ``x``,
    and its state is that direction's state ``c T + t``. Row ``k`` of the
    n x 2h result is the forward state ``read[0, k]`` beside the backward
    state ``read[1, k]``. Each row of ``x`` is projected once per
    direction. A state depends only on the steps before it, so chains of
    different lengths share one call: pad each at its tail and read no
    padded state, which then gets zero gradient.

    The directions step together over stacked (2, B, 4h) buffers. Each
    direction's recurrent product reads the transposed view of its ``wh``,
    and every sum is taken in the order of a step loop over one direction
    alone, so each direction's states and gradients are the bytes of that
    loop. The backward adds the backward direction's part of ``x``'s
    gradient before the forward direction's.
    """
    cells = (fwd, bwd)
    idx = np.asarray(index, dtype=np.intp)
    read = np.asarray(read, dtype=np.intp)
    four_h = fwd[2].shape[0] if fwd[2].values.ndim == 1 else -1
    hid = four_h // 4
    d_in = x.shape[1] if x.values.ndim == 2 else -1
    want = ((four_h, d_in), (four_h, hid), (four_h,))
    if (four_h % 4 or d_in < 0 or idx.ndim != 3 or len(idx) != 2
            or read.ndim != 2 or len(read) != 2
            or any(t.shape != s for cell in cells for t, s in zip(cell, want))):
        raise ShapeError(f"bilstm_sequence: incompatible shapes x {x.shape}, index "
                         f"{idx.shape}, read {read.shape}, cells "
                         f"{[[t.shape for t in cell] for cell in cells]}")
    _, n_seq, steps = idx.shape
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError("bilstm_sequence: index out of range")
    if read.size and (read.min() < 0 or read.max() >= n_seq * steps):
        raise ShapeError("bilstm_sequence: read out of range")
    whs = np.stack([wh.values for _, wh, _ in cells])
    wh_t = whs.transpose(0, 2, 1)
    bias = np.stack([b.values for _, _, b in cells])[:, None]
    # xs[t, d] is the input projection of step t of direction d; gates[t]
    # holds the i, f, g, o gates of step t, hs[t + 1] and cs[t + 1] its
    # states, and hs[0] and cs[0] the zero start, each (2, B, h)
    xs = np.stack([(x.values @ wx.values.T)[ix.T] for (wx, _, _), ix in zip(cells, idx)],
                  axis=1)
    gates = np.empty((steps, 4, 2, n_seq, hid))
    hs, cs = np.zeros((2, steps + 1, 2, n_seq, hid))
    tcs = np.empty((steps, 2, n_seq, hid))
    pre = np.empty((2, n_seq, four_h))
    pre_gates = pre.reshape(2, n_seq, 4, hid).transpose(2, 0, 1, 3)
    ig = np.empty((2, n_seq, hid))
    for h_in, x_t, act, c_in, c, tc, h in zip(hs, xs, gates, cs, cs[1:], tcs, hs[1:]):
        np.matmul(h_in, wh_t, out=pre)
        np.add(x_t, pre, out=pre)
        pre += bias
        # 1 / (1 + exp(-pre)) on every gate, then tanh on g
        np.negative(pre_gates, out=act)
        np.exp(act, out=act)
        act += 1.0
        np.divide(1.0, act, out=act)
        i, f, g, o = act
        np.tanh(pre_gates[2], out=g)
        np.multiply(f, c_in, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
    chain, step = np.divmod(read, steps)
    states = hs[step + 1, np.arange(2)[:, None], chain]
    out, tape = _begin(states.transpose(1, 0, 2).reshape(-1, 2 * hid), x, *fwd, *bwd)
    if tape:
        xv = x.values.copy()
        wxv = [wx.values.copy() for wx, _, _ in cells]
        def backward():
            # the gradient of each direction's states, rows c T + t: the
            # read rows' gradients summed in read order
            g_read = out.grad.reshape(-1, 2, hid).transpose(1, 0, 2).reshape(-1, hid)
            rows = (read + np.array([[0], [n_seq * steps]])).ravel()
            g_out = _row_sums(g_read, rows, 2 * n_seq * steps).reshape(2, n_seq, steps, hid)
            dpre = np.empty((2, steps, n_seq, four_h))
            slots = dpre.reshape(2, steps, n_seq, 4, hid)
            dh, dc, u, v = np.zeros((4, 2, n_seq, hid))
            for t in range(steps - 1, -1, -1):
                i, f, g, o = gates[t]
                tc = tcs[t]
                di, df, dg, do = slots[:, t].transpose(2, 0, 1, 3)
                # dh + g_out; dc + dh * o * (1 - tc * tc)
                dh += g_out[:, :, t]
                np.multiply(tc, tc, out=u)
                np.subtract(1.0, u, out=u)
                np.multiply(dh, o, out=v)
                v *= u
                dc += v
                # dc * g * i * (1 - i), dc * c * f * (1 - f), dh * tc * o * (1 - o)
                # and dc * i * (1 - g * g), each product left to right
                for d_gate, a, b, gate in ((di, dc, g, i), (df, dc, cs[t], f), (do, dh, tc, o)):
                    np.multiply(a, b, out=d_gate)
                    d_gate *= gate
                    np.subtract(1.0, gate, out=u)
                    d_gate *= u
                np.multiply(dc, i, out=dg)
                np.multiply(g, g, out=u)
                np.subtract(1.0, u, out=u)
                dg *= u
                np.matmul(dpre[:, t], whs, out=dh)
                dc *= f
            for d in (1, 0):
                wx, wh, b = cells[d]
                flat = dpre[d].reshape(steps * n_seq, four_h)
                if wh.tracked:
                    wh.grad += flat.T @ hs[:-1, d].reshape(steps * n_seq, hid)
                if b.tracked:
                    b.grad += flat.sum(axis=0)
                if x.tracked or wx.tracked:
                    d_proj = _row_sums(flat, idx[d].T.ravel(), x.shape[0])
                    if wx.tracked:
                        wx.grad += d_proj.T @ xv
                    if x.tracked:
                        x.grad += d_proj @ wxv[d]
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


def split_columns(x: Tensor, widths) -> tuple[Tensor, ...]:
    """A matrix as blocks of ``widths`` consecutive columns, left to right:
    the inverse of ``hconcat``. The blocks are views of ``x``, and under a
    tape each block's gradient is the same view of ``x``'s gradient, so
    the ops that read a block add straight into ``x``'s gradient and the
    split records no tape node."""
    bounds = [0, *itertools.accumulate(widths)]
    if x.values.ndim != 2 or bounds[-1] != x.shape[1] or min(widths, default=0) < 0:
        raise ShapeError(f"split_columns: {x.shape} into widths {list(widths)}")
    parts = tuple(Tensor(x.values[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    if x.tracked and active_tape():
        grad = x.ensure_grad()
        for part, lo, hi in zip(parts, bounds, bounds[1:]):
            part.tracked = True
            part.grad = grad[:, lo:hi]
    return parts


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Batched embedding fetch. Duplicate indices accumulate on backward.

    The backward sums the gathered gradient rows per distinct gathered row
    with ``_row_sums``, in gather order, and adds the sums into those rows
    of the table's gradient. Into a zero gradient this adds the same bits
    as ``np.add.at``.
    """
    idx = np.asarray(indices, dtype=np.intp)
    out, tape = _begin(table.values[idx], table)
    if tape:
        def backward():
            rows, slot = np.unique(idx.ravel(), return_inverse=True)
            table.grad[rows] += _row_sums(out.grad.reshape(len(slot), *table.shape[1:]),
                                          slot, len(rows))
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


def memory_attention(q: Tensor, memory: Tensor, row_span: np.ndarray,
                     null_rows: Tensor, null_mask: np.ndarray
                     ) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Scaled dot-product attention of every span over its own memory, one
    tape node.

    Span ``s`` queries with row ``s`` of ``q`` and attends over its real
    rows, the rows of ``memory`` whose entry in the sorted ``row_span`` is
    ``s``, and over the rows of ``null_rows`` that ``null_mask[s]`` selects.
    A row ``r`` scores ``r . q_s / sqrt(d_m)``; the context is the
    softmax-weighted sum of the rows. The model's bilinear score
    ``r . (f_s W)`` is this with ``q = f W``, projected by the caller.
    Returns the context matrix (n_spans x d_m) and the weights: one per
    real row, and an n_spans x n_null matrix that is zero outside
    ``null_mask``.

    The scores are one matrix with a column per span: the null rows by
    bucket, then each span's k-th real row in row ``n_null + k``, and
    ``-inf`` where a span has no such row. The softmax and its backward
    reduce over its columns, which numpy adds row by row when there are
    two or more, and the returned null weights are a transposed view of
    its first rows. The context adds to the null rows' product each span's
    weighted real rows, summed in row order by one ``_row_sums`` scatter,
    and the backward sums the query gradient the same way. So no span's
    sums depend on the other spans or on the longest run.

    The query row of each real row, ``q[row_span]``, is gathered only
    inside the products that read it, so neither the forward nor the tape
    holds that rows x d_m matrix; the backward gathers it again from its
    own copy of ``q``.
    """
    row_span = np.asarray(row_span, dtype=np.intp)
    null_mask = np.asarray(null_mask, dtype=bool)
    n, d_m = q.shape if q.values.ndim == 2 else (-1, -1)
    if (n < 0 or memory.shape != (len(row_span), d_m) or null_rows.values.ndim != 2
            or null_rows.shape[1] != d_m or null_mask.shape != (n, null_rows.shape[0])):
        raise ShapeError(f"memory_attention: incompatible shapes q {q.shape}, "
                         f"memory {memory.shape}, {len(row_span)} row spans, "
                         f"null_rows {null_rows.shape}, null_mask {null_mask.shape}")
    if len(row_span) and (row_span[0] < 0 or row_span[-1] >= n
                          or (row_span[1:] < row_span[:-1]).any()):
        raise ShapeError("memory_attention: row span ids must be sorted and in range")
    inv = 1.0 / math.sqrt(d_m)
    qv, mem, nul = q.values, memory.values, null_rows.values
    n_null = len(nul)
    # each real row's cell: its rank in its run below the null rows
    rank = np.arange(len(row_span)) - row_span.searchsorted(row_span)
    cell = (n_null + rank) * n + row_span
    p = np.full((n_null + rank.max(initial=0) + 1, n), -np.inf)
    np.copyto(p[:n_null], nul @ qv.T, where=null_mask.T)
    p.reshape(-1)[cell] = np.einsum("rd,rd->r", mem, qv[row_span])
    p *= inv
    top = p.max(axis=0, initial=-np.inf)
    if top.min(initial=0.0) == -np.inf:
        raise ShapeError("memory_attention: a span has no memory row")
    p -= top
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    p_real, p_null = p.take(cell), p[:n_null]
    ctx = p_null.T @ nul
    ctx += _row_sums(p_real[:, None] * mem, row_span, n)
    out, tape = _begin(ctx, q, memory, null_rows)
    if tape:
        qv, mem, nul = qv.copy(), mem.copy(), nul.copy()
        def backward():
            g = out.grad
            g_row = g[row_span]
            ds = np.zeros(p.shape)
            ds[:n_null] = nul @ g.T
            ds.reshape(-1)[cell] = np.einsum("rd,rd->r", mem, g_row)
            ds -= (p * ds).sum(axis=0)
            ds *= p
            ds *= inv
            ds_real, ds_null = ds.take(cell), ds[:n_null]
            if q.tracked:
                q.grad += ds_null.T @ nul
                q.grad += _row_sums(ds_real[:, None] * mem, row_span, n)
            if memory.tracked:
                g_row *= p_real[:, None]
                g_row += ds_real[:, None] * qv[row_span]
                memory.grad += g_row
            if null_rows.tracked:
                null_rows.grad += p_null @ g + ds_null @ qv
        tape.record(backward)
    return out, (p_real, p_null.T)


# ---------------------------------------------------------------------------
# regularization / loss


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.
    At rate 0 it returns ``x`` and draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout at a positive rate requires a seeded generator")
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
                alpha.grad += _row_sums(g * (-pow_g * logpt), tgt, alpha.shape[0])
        tape.record(backward)
    return out
