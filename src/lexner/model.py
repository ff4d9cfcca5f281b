"""Span classifier: fragment encoding + memory attention + focal loss.

Each candidate span is encoded, attends over its lexicon memory with a
scaled bilinear score, and the concatenated representation goes through a
feed-forward head to a distribution over entity types plus NONE. A
sentence's spans move through these stages together, as the rows of
matrices. Training minimizes focal loss with a per-class positive weight
vector, optionally learned (stored as exponentials of free parameters).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import decode, encoders, lexicon as lx
from .autodiff import ConfigError, Tensor
from .corpus import UNK, Sentence, Vocab
from .decode import ScoredSpan
from .optim import Adam, DivergenceError, clip_global_norm

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
    # vocabulary sizes, filled in when the model is built
    n_chars: int = 0
    n_seg: int = 4
    n_pos: int = 0
    n_types: int = 0
    n_lex: int = 0

    def validate(self):
        if self.char_encoder not in ("baseline", "birnn"):
            raise ConfigError(f"unknown character encoder {self.char_encoder!r}")
        if self.fragment_encoder not in ("bow", "fofe", "birnn"):
            raise ConfigError(f"unknown fragment encoder {self.fragment_encoder!r}")
        if not 0.0 < self.fofe_alpha < 1.0:
            raise ConfigError(f"fofe_alpha must lie in (0, 1), got {self.fofe_alpha}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")
        if self.k_cut < 0 or self.max_entity_len < 1:
            raise ConfigError("k_cut must be >= 0 and max_entity_len >= 1")
        for name in ("bucket_cap", "char_hidden", "char_layers", "frag_hidden",
                     "head_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.head_layers < 0:
            raise ConfigError(f"head_layers must be >= 0, got {self.head_layers}")

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


# the ModelConfig fields a vocabulary fixes; they are not run options
VOCAB_FIELDS = ("n_chars", "n_seg", "n_pos", "n_types", "n_lex")


def vocab_sizes(vocab: Vocab) -> dict[str, int]:
    """The ``ModelConfig`` vocabulary-size fields a vocabulary fixes."""
    return {name: len(getattr(vocab, table))
            for name, table in zip(VOCAB_FIELDS, Vocab.TABLES)}


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of a model, in creation order."""
    shapes = {
        "emb_char": (config.n_chars, config.d_char),
        "emb_seg": (config.n_seg, config.d_seg),
        "emb_pos": (config.n_pos, config.d_pos),
        "emb_lex": (config.n_lex, config.d_lex),
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
    shapes["head_out_w"] = (config.n_types, d_in)
    shapes["head_out_b"] = (config.n_types,)
    shapes["alpha_log"] = (config.n_types,)
    return shapes


class Model:
    """Parameter container plus the forward pass over one sentence."""

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
        for name, size in vocab_sizes(vocab).items():
            setattr(config, name, size)
        config.validate()
        presets = {"emb_char": char_embeddings, "emb_lex": lex_embeddings}
        p: dict[str, Tensor] = {}
        for name, shape in param_shapes(config).items():
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

    def trainable(self, freeze_lex: bool = True) -> dict[str, Tensor]:
        skip = {"emb_lex"} if freeze_lex else set()
        return {k: v for k, v in self.params.items() if k not in skip}

    def alpha(self) -> Tensor:
        if self.config.learn_alpha:
            return ad.exp(self.params["alpha_log"])
        return ad.constant(np.ones(self.config.n_types))

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.values.copy() for k, v in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]):
        for k, v in self.params.items():
            v.values[...] = snap[k]

    # -- forward -----------------------------------------------------------

    def score_spans(self, sent: Sentence, layout: lx.SentenceLayout,
                    spans: list[tuple[int, int]],
                    dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None,
                    training: bool = False,
                    want_attention: bool = False):
        """Probability matrix (n_spans x n_types) for the given spans.

        Returns (probs Tensor, attention list); attention entries are
        (weights array, row labels) when requested, else None.
        """
        cfg = self.config
        p = self.params
        w = encoders.char_feature_vectors(
            sent.char_ids, sent.seg_ids, sent.pos_ids,
            p["emb_char"], p["emb_seg"], p["emb_pos"],
            dropout_rate=dropout_rate, rng=rng, training=training)

        def cell(prefix):
            return p[f"{prefix}_wx"], p[f"{prefix}_wh"], p[f"{prefix}_b"]

        layers = cfg.char_layers if cfg.char_encoder == "birnn" else 0
        t = encoders.encode_characters(
            w, [(cell(f"char_l{l}_f"), cell(f"char_l{l}_b")) for l in range(layers)])
        if cfg.fragment_encoder == "bow":
            frags = encoders.encode_fragments_bow(t, spans)
        elif cfg.fragment_encoder == "fofe":
            frags = encoders.encode_fragments_fofe(t, spans, cfg.fofe_alpha)
        else:
            frags = encoders.encode_fragments_birnn(t, spans, cell("frag_f"), cell("frag_b"))
        memory = ad.hconcat(ad.gather_rows(p["emb_lex"], layout.lex_ids),
                            ad.gather_rows(p["emb_mod"], layout.mode_ids))
        ctx, (p_real, p_null) = ad.memory_attention(
            frags, p["attn_w"], memory, layout.row_span, p["null_rows"],
            layout.null_mask)
        attn_dump = (layout.attention_rows(p_real, p_null, cfg.k_cut)
                     if want_attention else [None] * len(spans))
        r = ad.hconcat(frags, ctx)
        for layer in range(cfg.head_layers):
            r = ad.tanh(ad.linear(r, p[f"head_w{layer}"], p[f"head_b{layer}"]))
        logits = ad.linear(r, p["head_out_w"], p["head_out_b"])
        return ad.softmax_rows(logits), attn_dump


def span_labels(sent: Sentence, spans: list[tuple[int, int]],
                vocab: Vocab) -> np.ndarray:
    """Gold type id per span, NONE where the span is not a gold entity."""
    gold = {(s, e): vocab.types.id(t) for s, e, t in sent.entities}
    none = vocab.none_id
    return np.array([gold.get(span, none) for span in spans], dtype=np.intp)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainSettings:
    """Run-level knobs that do not change the model's structure."""

    lr: float = 1e-3
    weight_decay: float = 1e-7
    dropout: float = 0.3
    batch_size: int = 16
    clip_norm: float = 5.0
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
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")


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
    rng = np.random.default_rng(settings.seed)
    active_lex = lex if settings.use_lexicon else None
    prepared = [_prepare(model, s, active_lex) for s in train_sents]
    dev_prepared = [_prepare(model, s, active_lex) for s in dev_sents]
    opt = Adam(model.trainable(settings.freeze_lex), lr=settings.lr,
               weight_decay=settings.weight_decay,
               sparse=SPARSE_TABLES)
    # a table outside the optimiser (the frozen lexicon) is read untracked,
    # so backward sends it no gradient and marks none of its rows
    frozen = [p for name, p in model.params.items()
              if name not in opt.params and p.tracked]
    for p in frozen:
        p.tracked = False
    try:
        return _train_epochs(model, prepared, dev_prepared, opt, rng, settings, log_fn)
    finally:
        for p in frozen:
            p.tracked = True


def _train_epochs(model, prepared, dev_prepared, opt, rng, settings, log_fn):
    cfg = model.config
    rows: list[EpochRow] = []
    best_f1, best_snap = -1.0, model.snapshot()
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(len(prepared))
        epoch_loss, epoch_frags = 0.0, 0
        for b0 in range(0, len(order), settings.batch_size):
            batch = [prepared[k] for k in order[b0:b0 + settings.batch_size]]
            with ad.Tape() as tape:
                alpha = model.alpha()
                total, n_frags = None, 0
                for sent, spans, layout, targets in batch:
                    probs, _ = model.score_spans(
                        sent, layout, spans, dropout_rate=settings.dropout,
                        rng=rng, training=True)
                    loss_s = ad.focal_loss_rows(probs, targets, alpha, cfg.gamma)
                    total = loss_s if total is None else ad.add(total, loss_s)
                    n_frags += len(spans)
                loss = ad.scale(total, 1.0 / n_frags)
                if not np.isfinite(loss.values):
                    raise DivergenceError(
                        f"non-finite loss in epoch {epoch}, batch {b0 // settings.batch_size}")
                tape.backward(loss)
            clip_global_norm(opt.params, settings.clip_norm)
            opt.step()
            opt.zero_grad()
            epoch_loss += float(loss.values) * n_frags
            epoch_frags += n_frags
        mean_loss = epoch_loss / max(epoch_frags, 1)

        def eval_split(name, items):
            kept = decode.decode_corpus(score_corpus(model, items),
                                        settings.rho, settings.nested)
            p, r, f1 = decode.evaluate(decode.key_sets(kept),
                                       [it[0].entities for it in items])
            rows.append(EpochRow(epoch, name, p, r, f1, mean_loss))
            return f1

        if settings.eval_train or not dev_prepared:
            monitored = eval_split("train", prepared)
        if dev_prepared:
            monitored = eval_split("dev", dev_prepared)
        if log_fn:
            log_fn(rows[-1])
        # ties go to the later epoch so a flat F1 curve still yields the
        # most-trained weights
        if monitored >= best_f1:
            best_f1, best_snap = monitored, model.snapshot()
        if 0 <= settings.early_stop_f1 <= monitored:
            break
    return best_snap, rows


def _prepare(model: Model, sent: Sentence, lex):
    if sent.char_ids is None:
        model.vocab.encode(sent)
    cfg, table = model.config, model.vocab.lex
    spans = encoders.enumerate_fragments(len(sent), cfg.max_entity_len)
    unk = table.id(UNK)
    layout = lx.SentenceLayout.build(lex, sent.text, spans, cfg.k_cut, cfg.bucket_cap,
                                     lambda w: table.id(w, unk))
    targets = span_labels(sent, spans, model.vocab)
    return sent, spans, layout, targets


def _score(model: Model, prepared, want_attention: bool = False):
    """Inference pass producing decode-ready scored spans."""
    sent, spans, layout, _ = prepared
    probs, attn = model.score_spans(sent, layout, spans,
                                    want_attention=want_attention)
    none, types = model.vocab.none_id, model.vocab.types
    best = probs.values.argmax(axis=1)
    chosen = probs.values[np.arange(len(spans)), best]
    return [ScoredSpan(start=i, end=j, type=types.sym(b), prob=p,
                       is_none=(b == none), attention=a)
            for (i, j), b, p, a in zip(spans, best.tolist(), chosen.tolist(), attn)]


def score_corpus(model: Model, prepared: list, want_attention: bool = False
                 ) -> list[list[ScoredSpan]]:
    """Decode-ready scored spans of each ``_prepare``d sentence."""
    return [_score(model, item, want_attention) for item in prepared]
