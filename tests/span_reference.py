"""Per-span reference of ``Model.score_spans`` and its memory layout.

The model runs each LSTM as a batch of chains in one ``lstm_sequence`` op
over a character matrix, with its weights as a ``(wx, wh, b)`` triple of
parameters. This module keeps the per-step path it replaced: one LSTM step
composed of per-op tape nodes (``reference_step``) and chains of those
steps over a list of row vectors (``lstm_run``), with the elementwise and
structural ops that only this path and the tests use (``sub``, ``mul``,
``sigmoid``, ``log``, ``sum_all``, ``stack_rows``), and weights drawn as
``Model.build`` draws them (``lstm_cell``).

The model scores all spans of a sentence as the rows of matrices: one
coefficient-matrix product per bag-of-words or forgetting encoding and one
fused memory-attention op. This module keeps the per-span path that it
replaced, for the tests to compare against: per-vector tape ops, one
feature vector per character, incremental fragment encoders that return a
dict, a memory matrix per span (``assemble_memory``) and one attention per
span (``attend``), concatenated with the fragment vector.

The model matches a sentence against the lexicon once and lays out the
memory of all its spans in ``SentenceLayout.build``. This module keeps the
per-span path that it replaced: each fragment matched on its own by four
walks over a forward and a reverse trie (``Matcher``), bucketed into a
``MemoryLayout`` (``bucketize``), and the span layouts joined into one
``SentenceLayout`` (``sentence_layout``).
"""
import math
from dataclasses import dataclass

import numpy as np

import lexner.autodiff as ad
from lexner.autodiff import ConfigError, ShapeError, Tensor, _begin
from lexner.lexicon import (EXACT, INFIX, MODES, PREFIX, SUFFIX, Match,
                            SentenceLayout, Trie, bucket_count, bucket_name)


# ---------------------------------------------------------------------------
# elementwise ops


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    out, tape = _begin(a.values - b.values, a, b)
    if tape:
        def backward():
            if a.tracked:
                a.grad += out.grad
            if b.tracked:
                b.grad -= out.grad
        tape.record(backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    out, tape = _begin(a.values * b.values, a, b)
    if tape:
        av, bv = a.values.copy(), b.values.copy()
        def backward():
            if a.tracked:
                a.grad += out.grad * bv
            if b.tracked:
                b.grad += out.grad * av
        tape.record(backward)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out, tape = _begin(1.0 / (1.0 + np.exp(-x.values)), x)
    if tape:
        ov = out.values
        def backward():
            x.grad += out.grad * ov * (1.0 - ov)
        tape.record(backward)
    return out


def log(x: Tensor) -> Tensor:
    out, tape = _begin(np.log(x.values), x)
    if tape:
        xv = x.values.copy()
        def backward():
            x.grad += out.grad / xv
        tape.record(backward)
    return out


def sum_all(x: Tensor) -> Tensor:
    out, tape = _begin(x.values.sum(), x)
    if tape:
        def backward():
            x.grad += out.grad
        tape.record(backward)
    return out


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


def stack_rows(rows: list[Tensor]) -> Tensor:
    """Vectors as the rows of a matrix."""
    if not rows:
        raise ShapeError("stack_rows: empty row list")
    out, tape = _begin(np.stack([r.values for r in rows]), *rows)
    if tape:
        def backward():
            for i, r in enumerate(rows):
                if r.tracked:
                    r.grad += out.grad[i]
        tape.record(backward)
    return out


def lookup(table: Tensor, index: int) -> Tensor:
    """Embedding row fetch; gradient scatters back into the table row."""
    out, tape = _begin(table.values[index].copy(), table)
    if tape:
        def backward():
            table.grad[index] += out.grad
            if table.touched_rows is None:
                table.touched_rows = np.zeros(table.shape[0], dtype=bool)
            table.touched_rows[index] = True
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
# per-step LSTM


def lstm_cell(d_in: int, hidden: int, rng: np.random.Generator):
    """LSTM weights ``(wx, wh, b)`` drawn as ``Model.build`` draws them:
    gate weights uniform in +-1/sqrt(hidden), zero biases."""
    bound = 1.0 / np.sqrt(hidden)
    return (ad.parameter(rng.uniform(-bound, bound, (4 * hidden, d_in))),
            ad.parameter(rng.uniform(-bound, bound, (4 * hidden, hidden))),
            ad.parameter(np.zeros(4 * hidden)))


def reference_step(cell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step ``(h_new, c_new)`` of per-op tape nodes; ``cell`` is
    ``(wx, wh, b)`` with gate rows in i, f, g, o order."""
    wx, wh, b = cell
    hid = wh.shape[1]
    pre = ad.add(ad.add(matvec(wx, x), matvec(wh, h)), b)
    i = sigmoid(vslice(pre, 0, hid))
    f = sigmoid(vslice(pre, hid, 2 * hid))
    g = ad.tanh(vslice(pre, 2 * hid, 3 * hid))
    o = sigmoid(vslice(pre, 3 * hid, 4 * hid))
    c_new = ad.add(mul(f, c), mul(i, g))
    h_new = mul(o, ad.tanh(c_new))
    return h_new, c_new


def lstm_run(xs: list[Tensor], cell, reverse: bool = False) -> list[Tensor]:
    """Hidden states aligned with ``xs``, one ``reference_step`` per
    vector from zero state; ``reverse`` runs right to left."""
    h = c = ad.constant(np.zeros(cell[1].shape[1]))
    states: list[Tensor] = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for k in order:
        h, c = reference_step(cell, xs[k], h, c)
        states[k] = h
    return states


# ---------------------------------------------------------------------------
# per-span forward pass


def char_feature_vectors(char_ids, seg_ids, pos_ids, emb_char, emb_seg, emb_pos,
                         dropout_rate=0.0, rng=None, training=False) -> list[Tensor]:
    out = []
    for c, s, p in zip(char_ids, seg_ids, pos_ids):
        w = concat([lookup(emb_char, c), lookup(emb_seg, s), lookup(emb_pos, p)])
        out.append(ad.dropout(w, dropout_rate, rng, training))
    return out


def encode_characters(w: list[Tensor], layers) -> list[Tensor]:
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
            ad.scale(sub(prefix[j + 1], prefix[i]), 1.0 / (j - i + 1))
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

    def cell(prefix):
        return tuple(p[f"{prefix}_{part}"] for part in ("wx", "wh", "b"))

    layers = range(cfg.char_layers) if cfg.char_encoder == "birnn" else []
    t = encode_characters(w, [(cell(f"char_l{l}_f"), cell(f"char_l{l}_b")) for l in layers])
    if cfg.fragment_encoder == "bow":
        frags = encode_fragments_bow(t, spans)
    elif cfg.fragment_encoder == "fofe":
        frags = encode_fragments_fofe(t, spans, cfg.fofe_alpha)
    else:
        frags = encode_fragments_birnn(t, spans, cell("frag_f"), cell("frag_b"))
    rows, attn_dump = [], []
    for span, layout in zip(spans, layouts):
        memory = assemble_memory(layout, p["emb_lex"], p["emb_mod"], p["null_rows"])
        ctx, weights = attend(frags[span], memory, p["attn_w"])
        rows.append(concat([frags[span], ctx]))
        attn_dump.append((weights.values.copy(), layout.row_labels(cfg.k_cut))
                         if want_attention else None)
    r = stack_rows(rows)
    for layer in range(cfg.head_layers):
        r = ad.tanh(ad.linear(r, p[f"head_w{layer}"], p[f"head_b{layer}"]))
    logits = ad.linear(r, p["head_out_w"], p["head_out_b"])
    return ad.softmax_rows(logits), attn_dump


# ---------------------------------------------------------------------------
# per-span matching and memory layout


def sort_key(match: Match):
    return (MODES.index(match.mode), match.k, match.word_id)


class Matcher:
    """Matches one fragment at a time over a forward and a reverse trie."""

    def __init__(self, lex):
        self.fwd, self.rev = Trie(), Trie()
        for w, i in lex.word_id.items():
            self.fwd.insert(w, i)
            self.rev.insert(w[::-1], i)

    def match(self, fragment: str) -> list[Match]:
        """All (word, mode) matches for a fragment, one mode per word, in
        ``sort_key`` order."""
        if not fragment:
            raise ValueError("cannot match an empty fragment")
        n = len(fragment)
        by_word: dict[int, Match] = {}

        def offer(match: Match):
            held = by_word.get(match.word_id)
            if held is None or sort_key(match) < sort_key(held):
                by_word[match.word_id] = match

        for k, wid in self.fwd.walk_prefixes(fragment):
            offer(Match(wid, fragment[:k], EXACT if k == n else PREFIX, k))
        rev = fragment[::-1]
        for k, wid in self.rev.walk_prefixes(rev):
            if k < n:
                offer(Match(wid, fragment[n - k:], SUFFIX, k))
        # interior occurrences: start >= 1, end <= n - 2
        for start in range(1, n - 1):
            for k, wid in self.fwd.walk_prefixes(fragment, start, n - 1):
                offer(Match(wid, fragment[start:start + k], INFIX, k))
        return sorted(by_word.values(), key=sort_key)


def bucket_of(match: Match, k_cut: int) -> int:
    if match.mode == EXACT:
        return 0
    if match.mode == PREFIX:
        return match.k if match.k <= k_cut else k_cut + 1
    if match.mode == SUFFIX:
        return k_cut + 1 + match.k if match.k <= k_cut else 2 * k_cut + 2
    return 2 * k_cut + 3


@dataclass
class MemoryLayout:
    """One fragment's memory: ``lex_ids`` and ``mode_ids`` of the real match
    rows (mode id == bucket id), and ``null_buckets``, the empty buckets.
    Row order: real rows sorted by bucket then match order, followed by null
    rows by bucket."""

    lex_ids: np.ndarray
    mode_ids: np.ndarray
    null_buckets: np.ndarray
    bucket_of_row: np.ndarray
    words: list[str]

    @property
    def n_rows(self) -> int:
        return len(self.bucket_of_row)

    def row_labels(self, k_cut: int) -> list[str]:
        real = [f"{w}[{bucket_name(b, k_cut)}]"
                for w, b in zip(self.words, self.bucket_of_row)]
        real += [f"-[{bucket_name(int(b), k_cut)}]" for b in self.null_buckets]
        return real


def bucketize(matches: list[Match], k_cut: int, freq, vocab_lex_id,
              cap: int = 8) -> MemoryLayout:
    """Group matches into 2K+4 buckets, capping each at ``cap`` rows.

    Overfull buckets keep the longest-k matches first, then the most
    frequent words (``freq`` maps a word to its frequency).
    ``vocab_lex_id`` maps a word string to its embedding row.
    """
    if k_cut < 0:
        raise ConfigError(f"bucket cutoff must be nonnegative, got {k_cut}")
    buckets: dict[int, list[Match]] = {}
    for m in matches:
        buckets.setdefault(bucket_of(m, k_cut), []).append(m)
    lex_ids, mode_ids, row_buckets, words = [], [], [], []
    for b in sorted(buckets):
        group = buckets[b]
        if len(group) > cap:
            group = sorted(group, key=lambda m: (-m.k, -freq(m.word), m.word_id))[:cap]
            group.sort(key=sort_key)
        for m in group:
            lex_ids.append(vocab_lex_id(m.word))
            mode_ids.append(b)
            row_buckets.append(b)
            words.append(m.word)
    null = [b for b in range(bucket_count(k_cut)) if b not in buckets]
    return MemoryLayout(
        lex_ids=np.array(lex_ids, dtype=np.intp),
        mode_ids=np.array(mode_ids, dtype=np.intp),
        null_buckets=np.array(null, dtype=np.intp),
        bucket_of_row=np.array(row_buckets + null, dtype=np.intp),
        words=words,
    )


def memory_layouts(lex, text, spans, k_cut, cap, lex_id) -> list[MemoryLayout]:
    """One ``MemoryLayout`` per span, from the arguments of
    ``SentenceLayout.build``; with no lexicon every bucket is null."""
    if lex is None:
        return [bucketize([], k_cut, None, lex_id, cap) for _ in spans]
    matcher = Matcher(lex)
    return [bucketize(matcher.match(text[i:j + 1]), k_cut, lex.freq, lex_id, cap)
            for i, j in spans]


def sentence_layout(layouts: list[MemoryLayout], k_cut: int) -> SentenceLayout:
    """The span layouts joined into one ragged sentence layout."""
    n = len(layouts)
    null_mask = np.zeros((n, bucket_count(k_cut)), dtype=bool)
    for s, layout in enumerate(layouts):
        null_mask[s, layout.null_buckets] = True
    return SentenceLayout(
        lex_ids=np.concatenate([l.lex_ids for l in layouts]),
        mode_ids=np.concatenate([l.mode_ids for l in layouts]),
        row_span=np.repeat(np.arange(n), [len(l.lex_ids) for l in layouts]),
        null_mask=null_mask,
        words=np.array([w for l in layouts for w in l.words], dtype=object),
    )
