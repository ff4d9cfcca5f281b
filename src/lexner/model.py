"""Span classifier: fragment encoding + memory attention + focal loss.

Each candidate span is encoded, attends over its lexicon memory with a
scaled bilinear score, and the concatenated representation goes through a
feed-forward head to a distribution over entity types plus NONE. For the
linear fragment encoders the bilinear and the head's first layer act on
the character rows before pooling (see ``Model.score_batch``). A corpus
is prepared once as a ``Batch`` of all its sentences, and the sentences of
a training minibatch or an evaluation chunk are gathered from it into a
``Batch`` that moves through these stages together: their characters as
the rows of one matrix, their spans as the rows of others. A single
sentence is prepared and scored the same way, as a corpus of one. Training
minimizes focal loss with a per-class positive weight vector, optionally
learned (stored as exponentials of free parameters).
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import autodiff as ad
from . import decode, encoders, lexicon as lx
from .autodiff import ConfigError, Tensor
from .corpus import UNK, Sentence, Vocab
from .decode import ScoredSpan
from .optim import Adam, DivergenceError, clip_global_norm

log = logging.getLogger(__name__)

SPARSE_TABLES = frozenset({"emb_char", "emb_seg", "emb_pos", "emb_lex", "emb_mod"})


@dataclass
class ModelConfig:
    """Structural hyperparameters baked into a checkpoint."""

    d_char: int = 50
    d_seg: int = 25
    d_pos: int = 25
    d_lex: int = 50
    d_mod: int = 20
    k_cut: int = 2              # bucket cutoff K
    bucket_cap: int = 8
    max_entity_len: int = 10
    char_encoder: str = "birnn"     # baseline | birnn
    fragment_encoder: str = "fofe"  # bow | fofe | birnn
    char_hidden: int = 128
    char_layers: int = 2
    frag_hidden: int = 128
    head_hidden: int = 256
    head_layers: int = 2
    fofe_alpha: float = 0.5
    gamma: float = 2.0
    learn_alpha: bool = True

    def validate(self):
        if self.char_encoder not in ("baseline", "birnn"):
            raise ConfigError(f"unknown character encoder {self.char_encoder!r}")
        if self.fragment_encoder not in ("bow", "fofe", "birnn"):
            raise ConfigError(f"unknown fragment encoder {self.fragment_encoder!r}")
        if not 0.0 < self.fofe_alpha < 1.0:
            raise ConfigError(f"fofe_alpha must lie in (0, 1), got {self.fofe_alpha}")
        if not 0.0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be >= 0 and finite, got {self.gamma}")
        if self.k_cut < 0 or self.max_entity_len < 1:
            raise ConfigError("k_cut must be >= 0 and max_entity_len >= 1")
        for name in ("bucket_cap", "char_hidden", "char_layers", "frag_hidden",
                     "head_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("d_char", "d_seg", "d_pos", "d_lex", "d_mod", "head_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.d_w < 1 or self.d_m < 1:
            raise ConfigError(f"d_char + d_seg + d_pos and d_lex + d_mod must be >= 1, "
                              f"got {self.d_w} and {self.d_m}")

    @property
    def d_w(self) -> int:
        return self.d_char + self.d_seg + self.d_pos

    @property
    def d_t(self) -> int:
        return 2 * self.char_hidden if self.char_encoder == "birnn" else self.d_w

    @property
    def d_f(self) -> int:
        return 2 * self.frag_hidden if self.fragment_encoder == "birnn" else self.d_t

    @property
    def d_m(self) -> int:
        return self.d_lex + self.d_mod

    @property
    def n_mod(self) -> int:
        return lx.bucket_count(self.k_cut)


def param_shapes(config: ModelConfig, vocab: Vocab) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of a model, in creation order: the
    embedding tables and the type outputs have a row per entry of their
    ``vocab`` table, the rest is sized by ``config``."""
    n_types = len(vocab.types)
    shapes = {
        "emb_char": (len(vocab.chars), config.d_char),
        "emb_seg": (len(vocab.segs), config.d_seg),
        "emb_pos": (len(vocab.pos), config.d_pos),
        "emb_lex": (len(vocab.lex), config.d_lex),
        "emb_mod": (config.n_mod, config.d_mod),
        "null_rows": (config.n_mod, config.d_m),
    }

    def cell(prefix, d_in, hidden):
        shapes[f"{prefix}_wx"] = (4 * hidden, d_in)
        shapes[f"{prefix}_wh"] = (4 * hidden, hidden)
        shapes[f"{prefix}_b"] = (4 * hidden,)

    if config.char_encoder == "birnn":
        d_in = config.d_w
        for layer in range(config.char_layers):
            cell(f"char_l{layer}_f", d_in, config.char_hidden)
            cell(f"char_l{layer}_b", d_in, config.char_hidden)
            d_in = 2 * config.char_hidden
    if config.fragment_encoder == "birnn":
        cell("frag_f", config.d_t, config.frag_hidden)
        cell("frag_b", config.d_t, config.frag_hidden)
    shapes["attn_w"] = (config.d_f, config.d_m)
    d_in = config.d_f + config.d_m
    for layer in range(config.head_layers):
        shapes[f"head_w{layer}"] = (config.head_hidden, d_in)
        shapes[f"head_b{layer}"] = (config.head_hidden,)
        d_in = config.head_hidden
    shapes["head_out_w"] = (n_types, d_in)
    shapes["head_out_b"] = (n_types,)
    shapes["alpha_log"] = (n_types,)
    return shapes


class Model:
    """Parameter container plus the forward pass over a batch of sentences."""

    def __init__(self, config: ModelConfig, vocab: Vocab,
                 params: dict[str, Tensor]):
        config.validate()
        self.config = config
        self.vocab = vocab
        self.params = params

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, config: ModelConfig, vocab: Vocab, rng: np.random.Generator,
              lex_embeddings: np.ndarray | None = None,
              char_embeddings: np.ndarray | None = None) -> "Model":
        """A model with seeded weights of the shapes ``param_shapes`` gives:
        the tables are sized by ``vocab``, the rest by ``config``, which is
        not changed, so one config may build models for many vocabularies.
        Pretrained embedding tables, when given, are used as they are."""
        config.validate()
        presets = {"emb_char": char_embeddings, "emb_lex": lex_embeddings}
        p: dict[str, Tensor] = {}
        for name, shape in param_shapes(config, vocab).items():
            if presets.get(name) is not None:
                if presets[name].shape != shape:
                    raise ConfigError(
                        f"{name}: pretrained shape {presets[name].shape} != {shape}")
                p[name] = ad.parameter(presets[name])
            elif len(shape) == 1:
                p[name] = ad.parameter(np.zeros(shape))
            elif name.endswith(("_wx", "_wh")):   # LSTM gates: 4 blocks of h rows
                bound = 1.0 / np.sqrt(shape[0] // 4)
                p[name] = ad.parameter(rng.uniform(-bound, bound, shape))
            else:
                p[name] = ad.parameter(rng.uniform(-0.1, 0.1, shape))
        return cls(config, vocab, p)

    def alpha(self) -> Tensor:
        if self.config.learn_alpha:
            return ad.exp(self.params["alpha_log"])
        return ad.constant(np.ones(len(self.vocab.types)))

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.values.copy() for k, v in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]):
        for k, v in self.params.items():
            v.values[...] = snap[k]

    # -- forward -----------------------------------------------------------

    def score_spans(self, sent: Sentence, layout: lx.SentenceLayout,
                    spans: list[tuple[int, int]],
                    dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None):
        """``score_batch`` of one sentence as ``_prepare`` returns it: the
        probability matrix (n_spans x n_types) of ``spans``.

        Returns (probs Tensor, (p_real, p_null)): the attention weights of
        every real memory row and of every span's null rows, which
        ``layout.attention_rows`` labels. Dropout at ``dropout_rate`` draws
        from ``rng`` when the rate is positive. A sentence that another
        vocabulary encoded is encoded again.
        """
        if sent.encoded_by is not self.vocab:
            self.vocab.encode(sent)
        return self.score_batch(Batch.of_sentence(sent, spans, layout), dropout_rate, rng)

    def score_batch(self, batch: "Batch", dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None):
        """``score_spans`` of every sentence of ``batch`` in one pass: the
        probability rows and attention weights of all spans, sentence after
        sentence, the weights laid out as in ``batch.layout``. The dropout
        masks are the ones that ``score_spans`` draws from ``rng`` for the
        sentences in turn.

        Each span's fragment vector f meets two matrices: the attention
        bilinear (query f W_attn) and the fragment columns of the head's
        first layer. Bag-of-words and forgetting encoding are linear, so
        the character rows are projected by both at once and the
        projections pooled: n rows projected instead of about m n spans.
        The span-local BiLSTM, not linear, encodes and then projects. The
        first layer is the pooled projection plus the context times the
        layer's context columns, plus its bias.

        Without a tape each stage's arrays are dropped once the next stage
        has read them: the character rows once pooled, the query part and
        the memory once attended, the context and the fragment part once
        the first layer has read them, and each head layer's input once the
        next product is taken. So an untaped forward holds only what a
        later stage still reads; under a tape the backward closures keep
        what they need."""
        cfg = self.config
        p = self.params
        w = encoders.char_feature_vectors(
            batch.char_ids, batch.seg_ids, batch.pos_ids,
            p["emb_char"], p["emb_seg"], p["emb_pos"],
            dropout_rate=dropout_rate, rng=rng)

        def cell(prefix):
            return p[f"{prefix}_wx"], p[f"{prefix}_wh"], p[f"{prefix}_b"]

        layers = cfg.char_layers if cfg.char_encoder == "birnn" else 0
        t = encoders.encode_characters(
            w, [(cell(f"char_l{l}_f"), cell(f"char_l{l}_b")) for l in range(layers)],
            batch.lengths)
        spans, layout = batch.spans, batch.layout
        # the first head layer is the output layer when there is no hidden one
        head = [(p[f"head_w{l}"], p[f"head_b{l}"]) for l in range(cfg.head_layers)]
        (w0, b0), *rest = head + [(p["head_out_w"], p["head_out_b"])]
        w_frag, w_ctx = ad.split_columns(w0, [cfg.d_f, cfg.d_m])

        def project(x):
            return ad.hconcat(ad.linear(x, w_frag), ad.matmul(x, p["attn_w"]))

        if cfg.fragment_encoder == "bow":
            pooled = encoders.encode_fragments_bow(project(t), spans)
        elif cfg.fragment_encoder == "fofe":
            pooled = encoders.encode_fragments_fofe(project(t), spans, cfg.fofe_alpha)
        else:
            pooled = project(encoders.encode_fragments_birnn(
                t, spans, cell("frag_f"), cell("frag_b"), batch.lengths))
        del w, t
        frag_part, query = ad.split_columns(pooled, [w0.shape[0], cfg.d_m])
        del pooled
        memory = ad.hconcat(ad.gather_rows(p["emb_lex"], layout.lex_ids),
                            ad.gather_rows(p["emb_mod"], layout.mode_ids))
        ctx, weights = ad.memory_attention(query, memory, layout.row_span,
                                           p["null_rows"], layout.null_mask)
        del query, memory
        r = ad.linear(ctx, w_ctx, b0, add=frag_part)
        del ctx, frag_part
        for w_l, b_l in rest:
            r = ad.tanh(r)
            r = ad.linear(r, w_l, b_l)
        return ad.softmax_rows(r), weights


@dataclass
class Batch:
    """Sentences stacked for one forward pass.

    The characters of all sentences are the rows of one matrix, sentence
    after sentence; ``lengths`` gives each sentence's row count. ``spans``
    holds every span's first and last row in that matrix, sentence after
    sentence, ``span_counts`` the spans of each sentence, ``layout`` the
    memory of every span and ``targets``, when known, the gold type of
    every span. ``prepare_corpus`` stacks a whole corpus so, once, and
    ``gather`` takes the minibatches from it.
    """

    char_ids: np.ndarray
    seg_ids: np.ndarray
    pos_ids: np.ndarray
    lengths: np.ndarray
    spans: np.ndarray
    span_counts: np.ndarray
    layout: lx.SentenceLayout
    targets: np.ndarray | None = None

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """Where each sentence's characters, spans and memory rows begin: a
        3 x (sentences + 1) array whose last column holds the totals. It is
        found once, when first read; ``gather`` hands each batch it makes
        its offsets."""
        ends = np.cumsum([self.lengths, self.span_counts], axis=1, dtype=np.intp)
        ends = np.vstack([ends, self.layout.row_span.searchsorted(ends[1])])
        return np.hstack([np.zeros((3, 1), dtype=np.intp), ends])

    @classmethod
    def of_sentence(cls, sent: Sentence, spans: list[tuple[int, int]],
                    layout: lx.SentenceLayout, targets: np.ndarray | None = None
                    ) -> "Batch":
        """The batch of the one sentence ``sent``, from what ``_prepare``
        returns for it: its spans as (i, j) pairs, their layout and, when
        known, their gold types."""
        pairs = np.fromiter(chain.from_iterable(spans), np.intp, 2 * len(spans))
        return cls(sent.char_ids, sent.seg_ids, sent.pos_ids, np.array([len(sent)]),
                   pairs.reshape(-1, 2), np.array([len(spans)]), layout, targets)

    def gather(self, picks) -> "Batch":
        """The sentences ``picks`` of this batch, in that order, as one
        batch: each sentence's run of characters, of spans and of memory
        rows, the row and span numbers moved by the distance its run moves.
        The cost grows with the picked sentences, not with this batch."""
        picks = np.asarray(picks, dtype=np.intp)
        first = self.offsets[:, picks]
        counts = self.offsets[:, picks + 1] - first
        offsets = np.zeros((3, len(picks) + 1), dtype=np.intp)
        np.cumsum(counts, axis=1, out=offsets[:, 1:])
        # how far back each picked sentence's characters, spans and rows move
        moved = first - offsets[:, :-1]
        chars, spans, rows = (np.arange(total) + np.repeat(back, count) for total, back, count
                              in zip(offsets[:, -1].tolist(), moved, counts))
        layout = self.layout
        batch = Batch(
            char_ids=self.char_ids[chars],
            seg_ids=self.seg_ids[chars],
            pos_ids=self.pos_ids[chars],
            lengths=counts[0],
            spans=self.spans[spans] - np.repeat(moved[0], counts[1])[:, None],
            span_counts=counts[1],
            layout=lx.SentenceLayout(
                lex_ids=layout.lex_ids[rows],
                mode_ids=layout.mode_ids[rows],
                row_span=layout.row_span[rows] - np.repeat(moved[1], counts[2]),
                null_mask=layout.null_mask[spans],
                words=layout.words[rows]),
            targets=None if self.targets is None else self.targets[spans],
        )
        batch.offsets = offsets
        return batch

    def split(self, rows):
        """Per sentence, its spans' part of a sequence with one item per span."""
        bounds = self.offsets[1].tolist()
        return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainSettings:
    """Run-level knobs that do not change the model's structure."""

    lr: float = 1e-3
    weight_decay: float = 1e-7
    dropout: float = 0.3
    batch_size: int = 16
    clip_norm: float = 5.0          # 0 disables
    epochs: int = 30
    freeze_lex: bool = True
    use_lexicon: bool = True
    rho: float = 0.25
    nested: bool = False
    early_stop_f1: float = -1.0     # negative disables
    eval_train: bool = False
    seed: int = 1

    def validate(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got "
                              f"{self.weight_decay}")
        if not self.clip_norm >= 0:
            raise ConfigError(f"clip_norm must be >= 0 (0 disables clipping), "
                              f"got {self.clip_norm}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochRow:
    epoch: int
    split: str
    precision: float
    recall: float
    f1: float
    loss: float


def train_model(model: Model, train_sents: list[Sentence],
                dev_sents: list[Sentence], lex: lx.Lexicon | None,
                settings: TrainSettings,
                log_fn=None) -> tuple[dict[str, np.ndarray], list[EpochRow]]:
    """Minibatch Adam training; returns the best snapshot and the epoch log.

    The best checkpoint is chosen by dev F1 (train F1 when no dev split is
    given). Embedding tables use the sparse update mode.
    """
    max_len = model.config.max_entity_len
    too_long = [e - s + 1 for sent in train_sents for s, e, _ in sent.entities
                if e - s + 1 > max_len]
    if too_long:
        log.warning("%d training entities are longer than max_entity_len %d (longest "
                    "%d characters); no span covers them, so they are never learned",
                    len(too_long), max_len, max(too_long))
    rng = np.random.default_rng(settings.seed)
    active_lex = lex if settings.use_lexicon else None
    train = prepare_corpus(model, train_sents, active_lex)
    dev = prepare_corpus(model, dev_sents, active_lex)
    # a frozen lexicon is read untracked, so backward sends it no gradient
    # and marks none of its rows, and the optimiser leaves it out
    lex_table = model.params["emb_lex"]
    lex_tracked = lex_table.tracked
    lex_table.tracked = lex_tracked and not settings.freeze_lex
    opt = Adam({name: p for name, p in model.params.items() if p.tracked},
               lr=settings.lr, weight_decay=settings.weight_decay, sparse=SPARSE_TABLES)
    try:
        return _train_epochs(model, train, [s.entities for s in train_sents], dev,
                             [s.entities for s in dev_sents], opt, rng, settings, log_fn)
    finally:
        lex_table.tracked = lex_tracked


def _train_epochs(model, train, train_gold, dev, dev_gold, opt, rng, settings, log_fn):
    """The epochs of ``train_model`` over the prepared corpora ``train`` and
    ``dev``, whose sentences hold the gold entities ``*_gold``."""
    cfg = model.config
    rows: list[EpochRow] = []
    best_f1, best_snap = -1.0, model.snapshot()
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(len(train_gold))
        epoch_loss, epoch_frags = 0.0, 0
        for b0 in range(0, len(order), settings.batch_size):
            batch = train.gather(order[b0:b0 + settings.batch_size])
            targets = batch.targets
            with ad.Tape() as tape:
                probs, _ = model.score_batch(batch, dropout_rate=settings.dropout,
                                             rng=rng)
                loss = ad.scale(ad.focal_loss_rows(probs, targets, model.alpha(),
                                                   cfg.gamma), 1.0 / len(targets))
                if not np.isfinite(loss.values):
                    raise DivergenceError(
                        f"non-finite loss in epoch {epoch}, batch {b0 // settings.batch_size}")
                tape.backward(loss)
            clip_global_norm(opt.params, settings.clip_norm)
            opt.step()
            opt.zero_grad()
            epoch_loss += float(loss.values) * len(targets)
            epoch_frags += len(targets)
        mean_loss = epoch_loss / max(epoch_frags, 1)

        def eval_split(name, corpus, gold):
            kept = decode.decode_corpus(
                score_corpus(model, corpus, batch_size=settings.batch_size),
                settings.rho, settings.nested)
            p, r, f1 = decode.evaluate(decode.key_sets(kept), gold)
            rows.append(EpochRow(epoch, name, p, r, f1, mean_loss))
            return f1

        if settings.eval_train or not dev_gold:
            monitored = eval_split("train", train, train_gold)
        if dev_gold:
            monitored = eval_split("dev", dev, dev_gold)
        if log_fn:
            log_fn(rows[-1])
        # ties go to the later epoch so a flat F1 curve still yields the
        # most-trained weights
        if monitored >= best_f1:
            best_f1, best_snap = monitored, model.snapshot()
        if 0 <= settings.early_stop_f1 <= monitored:
            break
    return best_snap, rows


def prepare_corpus(model: Model, sents: list[Sentence], lex) -> Batch:
    """Every sentence of ``sents`` with its spans, their memory layout and
    their gold types, stacked as one batch: the spans of each sentence as
    ``fragment_rows`` enumerates them, and the memory matched against
    ``lex`` (None: no lexicon) in one pass over all sentences."""
    vocab, cfg = model.vocab, model.config
    for sent in sents:
        if sent.encoded_by is not vocab:
            vocab.encode(sent)
    lengths = np.array([len(s) for s in sents], dtype=np.intp)
    starts, ends = encoders.fragment_rows(lengths, cfg.max_entity_len)
    layout = lx.SentenceLayout.build_corpus(lex, [s.text for s in sents], starts, ends,
                                            cfg.k_cut, cfg.bucket_cap, _lex_id(model))
    # spans are ordered by first row and then end, so an entity (s, e) no
    # longer than max_entity_len is the span e - s places after the first
    # span at row s
    gold = [(row + s, e - s, vocab.types.id(t))
            for row, sent in zip((lengths.cumsum() - lengths).tolist(), sents)
            for s, e, t in sent.entities if e - s < cfg.max_entity_len]
    targets = np.full(len(starts), vocab.none_id, dtype=np.intp)
    if gold:
        row, width, type_id = np.array(gold, dtype=np.intp).T
        targets[starts.searchsorted(row) + width] = type_id

    def stack(name):   # an empty corpus stacks to an empty array
        return np.concatenate([getattr(s, name) for s in sents] + [np.empty(0, np.intp)])

    return Batch(char_ids=stack("char_ids"), seg_ids=stack("seg_ids"),
                 pos_ids=stack("pos_ids"), lengths=lengths,
                 spans=np.array([starts, ends]).T,
                 span_counts=encoders.fragment_count(lengths, cfg.max_entity_len),
                 layout=layout, targets=targets)


def _lex_id(model: Model):
    """The embedding row of a lexicon word, ``<unk>`` for one the
    vocabulary does not hold."""
    table = model.vocab.lex
    unk = table.id(UNK)
    return lambda w: table.id(w, unk)


def _prepare(model: Model, sent: Sentence, lex):
    """``prepare_corpus`` of the one sentence ``sent``, unpacked: (the
    sentence, its spans as (i, j) pairs in ``fragment_rows`` order, their
    layout, their gold types)."""
    corpus = prepare_corpus(model, [sent], lex)
    return sent, list(zip(*corpus.spans.T.tolist())), corpus.layout, corpus.targets


def _score(model: Model, prepared) -> list[ScoredSpan]:
    """Decode-ready scored spans of one ``_prepare``d sentence."""
    return score_corpus(model, Batch.of_sentence(*prepared))[0]


def score_corpus(model: Model, corpus: Batch, want_attention: bool = False,
                 batch_size: int = TrainSettings.batch_size) -> list[list[ScoredSpan]]:
    """Decode-ready scored spans of each sentence of a prepared corpus,
    scored ``batch_size`` sentences at a time, chunk after chunk: each span
    with its most probable type and, when ``want_attention``, its labelled
    attention weights."""
    none, types = model.vocab.none_id, model.vocab.types
    n = len(corpus.lengths)
    out = []
    for c0 in range(0, n, batch_size):
        batch = corpus.gather(np.arange(c0, min(c0 + batch_size, n)))
        probs, weights = model.score_batch(batch)
        best = probs.values.argmax(axis=1)
        chosen = probs.values[np.arange(len(best)), best]
        attn = (batch.layout.attention_rows(*weights, model.config.k_cut)
                if want_attention else repeat(None))
        # each span's first and last character within its sentence
        spans = (batch.spans - np.repeat(batch.offsets[0, :-1],
                                         batch.span_counts)[:, None]).tolist()
        out += batch.split([ScoredSpan(start=i, end=j, type=types.sym(b), prob=p,
                                       is_none=(b == none), attention=a)
                            for (i, j), b, p, a in zip(spans, best.tolist(),
                                                       chosen.tolist(), attn)])
    return out
