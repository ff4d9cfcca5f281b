"""Per-span reference of ``Model.score_spans``.

The model scores all spans of a sentence as the rows of matrices: one
coefficient-matrix product per bag-of-words or forgetting encoding and one
fused memory-attention op. This module keeps the per-span path that it
replaced, for the tests to compare against: per-vector tape ops, one
feature vector per character, incremental fragment encoders that return a
dict, a memory matrix per span (``assemble_memory``) and one attention per
span (``attend``), concatenated with the fragment vector.
"""
import math

import numpy as np

import lexner.autodiff as ad
from lexner.autodiff import ShapeError, Tensor, _begin
from lexner.encoders import lstm_run


# ---------------------------------------------------------------------------
# per-vector ops


def matvec(a: Tensor, x: Tensor) -> Tensor:
    if a.values.ndim != 2 or x.values.ndim != 1 or a.shape[1] != x.shape[0]:
        raise ShapeError(f"matvec: incompatible shapes {a.shape} and {x.shape}")
    out, tape = _begin(a.values @ x.values, a, x)
    if tape:
        av, xv = a.values.copy(), x.values.copy()
        def backward():
            if a.tracked:
                a.grad += np.outer(out.grad, xv)
            if x.tracked:
                x.grad += av.T @ out.grad
        tape.record(backward)
    return out


def vecmat(x: Tensor, a: Tensor) -> Tensor:
    if a.values.ndim != 2 or x.values.ndim != 1 or x.shape[0] != a.shape[0]:
        raise ShapeError(f"vecmat: incompatible shapes {x.shape} and {a.shape}")
    out, tape = _begin(x.values @ a.values, x, a)
    if tape:
        av, xv = a.values.copy(), x.values.copy()
        def backward():
            if x.tracked:
                x.grad += av @ out.grad
            if a.tracked:
                a.grad += np.outer(xv, out.grad)
        tape.record(backward)
    return out


def concat(parts: list[Tensor]) -> Tensor:
    if not parts or any(p.values.ndim != 1 for p in parts):
        raise ShapeError(f"concat: expected vectors, got {[p.shape for p in parts]}")
    out, tape = _begin(np.concatenate([p.values for p in parts]), *parts)
    if tape:
        def backward():
            lo = 0
            for p in parts:
                hi = lo + p.shape[0]
                if p.tracked:
                    p.grad += out.grad[lo:hi]
                lo = hi
        tape.record(backward)
    return out


def vslice(x: Tensor, start: int, stop: int) -> Tensor:
    if x.values.ndim != 1:
        raise ShapeError(f"vslice: expected a vector, got shape {x.shape}")
    out, tape = _begin(x.values[start:stop].copy(), x)
    if tape:
        def backward():
            x.grad[start:stop] += out.grad
        tape.record(backward)
    return out


def vconcat(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"vconcat: incompatible shapes {a.shape} and {b.shape}")
    out, tape = _begin(np.concatenate([a.values, b.values], axis=0), a, b)
    if tape:
        split = a.shape[0]
        def backward():
            if a.tracked:
                a.grad += out.grad[:split]
            if b.tracked:
                b.grad += out.grad[split:]
        tape.record(backward)
    return out


def lookup(table: Tensor, index: int) -> Tensor:
    """Embedding row fetch; gradient scatters back into the table row."""
    out, tape = _begin(table.values[index].copy(), table)
    if tape:
        def backward():
            table.grad[index] += out.grad
            table.touched_rows.add(int(index))
        tape.record(backward)
    return out


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax of a vector (max subtraction)."""
    if x.values.ndim != 1 or x.shape[0] == 0:
        raise ShapeError(f"softmax: expected a nonempty vector, got shape {x.shape}")
    e = np.exp(x.values - x.values.max())
    out, tape = _begin(e / e.sum(), x)
    if tape:
        p = out.values
        def backward():
            g = out.grad
            x.grad += p * (g - np.dot(p, g))
        tape.record(backward)
    return out


# ---------------------------------------------------------------------------
# per-span forward pass


def char_feature_vectors(char_ids, seg_ids, pos_ids, emb_char, emb_seg, emb_pos,
                         dropout_rate=0.0, rng=None, training=False) -> list[Tensor]:
    out = []
    for c, s, p in zip(char_ids, seg_ids, pos_ids):
        w = concat([lookup(emb_char, c), lookup(emb_seg, s), lookup(emb_pos, p)])
        out.append(ad.dropout(w, dropout_rate, rng, training))
    return out


def encode_characters(w: list[Tensor], mode, layers) -> list[Tensor]:
    if mode == "baseline":
        return w
    xs = w
    for fwd, bwd in layers:
        f_states = lstm_run(xs, fwd)
        b_states = lstm_run(xs, bwd, reverse=True)
        xs = [concat([f, b]) for f, b in zip(f_states, b_states)]
    return xs


def encode_fragments_bow(t, spans):
    """Mean of the span's character vectors via shared running prefix sums."""
    prefix = [ad.constant(np.zeros(t[0].shape[0]))]
    for v in t:
        prefix.append(ad.add(prefix[-1], v))
    return {(i, j): t[i] if i == j else
            ad.scale(ad.sub(prefix[j + 1], prefix[i]), 1.0 / (j - i + 1))
            for i, j in spans}


def encode_fragments_fofe(t, spans, alpha):
    """z_k = alpha * z_{k-1} + t_k; span (i, j) reuses the chain of (i, j-1)."""
    max_end = {}
    for i, j in spans:
        max_end[i] = max(max_end.get(i, i), j)
    chains = {}
    for i, far in max_end.items():
        chain = [t[i]]
        for k in range(i + 1, far + 1):
            chain.append(ad.add(ad.scale(chain[-1], alpha), t[k]))
        chains[i] = chain
    return {(i, j): chains[i][j - i] for i, j in spans}


def encode_fragments_birnn(t, spans, fwd, bwd):
    """Final forward state ++ final backward state of a span-local BiLSTM;
    chains shared across spans with a common start or a common end."""
    starts, ends = {}, {}
    for i, j in spans:
        starts[i] = max(starts.get(i, i), j)
        ends[j] = min(ends.get(j, j), i)
    fchain, bchain = {}, {}
    for i, far in starts.items():
        fchain[i] = lstm_run(t[i:far + 1], fwd)
    for j, near in ends.items():
        bchain[j] = lstm_run(t[near:j + 1], bwd, reverse=True)[::-1]
    return {(i, j): concat([fchain[i][j - i], bchain[j][j - i]]) for i, j in spans}


def assemble_memory(layout, emb_lex, emb_mod, null_rows) -> Tensor:
    """Memory matrix (n_m x d_m): word embedding ++ mode embedding per real
    row, learned null rows for empty buckets."""
    parts = []
    if len(layout.lex_ids):
        parts.append(ad.hconcat(ad.gather_rows(emb_lex, layout.lex_ids),
                                ad.gather_rows(emb_mod, layout.mode_ids)))
    if len(layout.null_buckets):
        parts.append(ad.gather_rows(null_rows, layout.null_buckets))
    return vconcat(*parts) if len(parts) == 2 else parts[0]


def attend(f: Tensor, memory: Tensor, w_attn: Tensor) -> tuple[Tensor, Tensor]:
    """Scaled bilinear attention of one fragment vector over its memory."""
    d_m = memory.shape[1]
    scores = ad.scale(matvec(memory, vecmat(f, w_attn)), 1.0 / math.sqrt(d_m))
    weights = softmax(scores)
    return vecmat(weights, memory), weights


def score_spans(model, sent, layouts, spans, dropout_rate=0.0, rng=None,
                training=False, want_attention=False):
    """``Model.score_spans`` one span at a time; ``layouts`` holds one
    ``MemoryLayout`` per span."""
    cfg, p = model.config, model.params
    w = char_feature_vectors(sent.char_ids, sent.seg_ids, sent.pos_ids,
                             p["emb_char"], p["emb_seg"], p["emb_pos"],
                             dropout_rate=dropout_rate, rng=rng, training=training)
    t = encode_characters(w, cfg.char_encoder, model._char_cells)
    if cfg.fragment_encoder == "bow":
        frags = encode_fragments_bow(t, spans)
    elif cfg.fragment_encoder == "fofe":
        frags = encode_fragments_fofe(t, spans, cfg.fofe_alpha)
    else:
        frags = encode_fragments_birnn(t, spans, *model._frag_cells)
    rows, attn_dump = [], []
    for span, layout in zip(spans, layouts):
        memory = assemble_memory(layout, p["emb_lex"], p["emb_mod"], p["null_rows"])
        ctx, weights = attend(frags[span], memory, p["attn_w"])
        rows.append(concat([frags[span], ctx]))
        attn_dump.append((weights.values.copy(), layout.row_labels(cfg.k_cut))
                         if want_attention else None)
    r = ad.stack_rows(rows)
    for layer in range(cfg.head_layers):
        r = ad.tanh(ad.linear(r, p[f"head_w{layer}"], p[f"head_b{layer}"]))
    logits = ad.linear(r, p["head_out_w"], p["head_out_b"])
    return ad.softmax_rows(logits), attn_dump
