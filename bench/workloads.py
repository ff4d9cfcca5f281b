"""Inputs, passes and output checks of the benchmark workloads.

A workload finds any untimed set-up arguments in ``prepare``, builds its
inputs from a seed in ``setup`` and then repeats ``run_pass`` over them.
Every call into lexner goes through a module attribute (``decode.resolve``,
``checkpoint.save``, ...) so that the tracer in ``tracing.py`` sees it when
it patches that attribute.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from lexner import autodiff as ad
from lexner import checkpoint, decode, model as lexmodel, synth
from lexner.corpus import Sentence, Vocab
from lexner.lexicon import Lexicon

# the sweep subcommand's default threshold grid, and the training default
RHO_GRID = tuple(round(0.1 * i, 1) for i in range(10))
NESTED_RHO = 0.25
PROB_SUM_TOL = 1e-9

# acceptance criterion 7 (synthetic overfit) model configuration
SMALL_CONFIG = dict(d_char=16, d_seg=8, d_pos=8, d_lex=24, d_mod=8,
                    k_cut=2, max_entity_len=5, char_encoder="baseline",
                    fragment_encoder="bow", head_hidden=32, head_layers=1)

MAX_SENTENCE_LEN = 256       # RunConfig.max_sentence_len
MIN_PIECE_LEN = 8            # shortest sentence synth.make_sentence builds
PLATEAU = 2                  # sentences of one length on each side of p50, p75
INFER_ROUNDS = 2             # predictions of each held-out sentence per epoch


def spread(lo: int, hi: int, count: int, power: int = 1) -> list[int]:
    """``count`` integers from ``lo`` to ``hi``, at the ``power``-th powers
    of evenly spread points of [0, 1]."""
    last = (count - 1) ** power
    return [lo + i ** power * (hi - lo) // last for i in range(count)]


def with_plateaus(lengths: list[int], width: int = PLATEAU) -> list[int]:
    """Sorted ``lengths`` with the ``width`` sentences on each side of the
    nearest-rank p50 and p75 given the length at that rank.

    A percentile then reads the middle of several sentences of one length,
    so it hangs on how costly a sentence of that length is, not on the
    content of one sentence.
    """
    out = sorted(lengths)
    for q in (50, 75):
        at = math.ceil(len(out) * q / 100) - 1
        out[at - width:at + width + 1] = [out[at]] * (2 * width + 1)
    return out


# Sentence lengths are fixed instead of drawn, so that every seed gives the
# same amount of work and the latency percentiles stay comparable across
# seeds; only the characters, entities and lexicon matches vary. 40
# sentences leave 10 beyond p75.
# The long sentences' lengths grow with the square of the rank: p50 is a
# sentence of 53 characters, p75 one of 114, and the tail beyond it reaches
# 200, while a pass over all of them stays short enough to repeat about nine
# times in a run. The held-out sentences of the training workload span the
# lengths synth.make_sentence builds.
LONG_LENGTHS = with_plateaus(spread(8, 200, 40, power=2))
HELD_OUT_LENGTHS = with_plateaus(spread(8, 22, 40))

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


# ---------------------------------------------------------------------------
# inputs


def join_sentences(pieces: list[Sentence]) -> Sentence:
    """One sentence from consecutive pieces, entity offsets shifted."""
    chars, segs, pos, entities = [], [], [], set()
    for piece in pieces:
        offset = len(chars)
        entities |= {(s + offset, e + offset, t) for s, e, t in piece.entities}
        chars += piece.chars
        segs += piece.seg_labels
        pos += piece.pos_tags
    return Sentence(chars, segs, pos, entities)


def cut_sentence(sent: Sentence, length: int) -> Sentence:
    """The first ``length`` characters of ``sent``. A word cut in two ends
    at the cut, and entities that reach past it are dropped."""
    segs = sent.seg_labels[:length]
    segs[-1] = {"B": "S", "M": "E"}.get(segs[-1], segs[-1])
    return Sentence(sent.chars[:length], segs, sent.pos_tags[:length],
                    {e for e in sent.entities if e[1] < length})


def pieces_needed(lengths: list[int]) -> int:
    """Pieces that always suffice for ``sentences_of_lengths(..., lengths)``."""
    return sum(-(-n // MIN_PIECE_LEN) for n in lengths)


def sentences_of_lengths(pieces: list[Sentence], lengths: list[int]) -> list[Sentence]:
    """One sentence of each length: the next pieces joined until they are
    long enough, then cut to the length; the rest of the last piece is
    dropped."""
    out, rest = [], iter(pieces)
    for length in lengths:
        if not 0 < length <= MAX_SENTENCE_LEN:
            raise ValueError(f"sentence length {length} outside 1..{MAX_SENTENCE_LEN}")
        group: list[Sentence] = []
        while sum(len(p) for p in group) < length:
            piece = next(rest, None)
            if piece is None:
                raise ValueError(f"{len(pieces)} pieces cannot fill lengths {lengths}")
            group.append(piece)
        out.append(cut_sentence(join_sentences(group), length))
    return out


# ---------------------------------------------------------------------------
# one sentence through the inference path


@dataclass
class Inferred:
    ms: float
    probs: np.ndarray
    targets: np.ndarray
    survivors: int              # spans whose argmax is a type, at rho 0
    failures: list[str]


def scored_spans(model: lexmodel.Model, spans, probs: np.ndarray
                 ) -> list[decode.ScoredSpan]:
    """Decode-ready spans from a probability matrix, as ``model._score``
    builds them."""
    none = model.vocab.none_id
    best = probs.argmax(axis=1)
    return [decode.ScoredSpan(start=i, end=j, type=model.vocab.types.sym(int(b)),
                              prob=float(probs[row, b]), is_none=(int(b) == none))
            for row, ((i, j), b) in enumerate(zip(spans, best))]


def infer_sentence(model: lexmodel.Model, sent: Sentence,
                   lex: Lexicon | None) -> Inferred:
    """Lexicon preparation, tape-free scoring, a flat decode at every rho of
    the sweep grid and one nested decode; timed, then checked."""
    t0 = time.perf_counter()
    _, spans, layouts, targets = lexmodel._prepare(model, sent, lex)
    probs, _ = model.score_spans(sent, layouts, spans)
    scored = scored_spans(model, spans, probs.values)
    flat = {}
    for rho in RHO_GRID:
        flat[rho] = decode.resolve(decode.filter_threshold(scored, rho))
    nested = decode.resolve(decode.filter_threshold(scored, NESTED_RHO), nested=True)
    ms = (time.perf_counter() - t0) * 1e3

    failures = check_probs(probs.values)
    for rho, kept in flat.items():
        failures += check_flat(kept) + check_threshold(kept, rho)
    failures += check_nested(nested) + check_threshold(nested, NESTED_RHO)
    survivors = sum(1 for s in scored if not s.is_none)
    return Inferred(ms, probs.values, targets, survivors, failures)


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages


def check_probs(probs: np.ndarray) -> list[str]:
    if not np.isfinite(probs).all():
        return ["non-finite probability"]
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > PROB_SUM_TOL:
        return [f"probability row sums off by {worst:.3e}"]
    return []


def check_flat(kept: list[decode.ScoredSpan]) -> list[str]:
    ordered = sorted(kept, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start <= a.end:
            return [f"flat output overlaps: {a.key()} and {b.key()}"]
    return []


def check_nested(kept: list[decode.ScoredSpan]) -> list[str]:
    bounds = [(s.start, s.end) for s in kept]
    if len(set(bounds)) != len(bounds):
        return ["nested output repeats a span"]
    for x, (a0, a1) in enumerate(bounds):
        for b0, b1 in bounds[x + 1:]:
            partial = a0 <= b1 and b0 <= a1 and not (
                (a0 <= b0 and b1 <= a1) or (b0 <= a0 and a1 <= b1))
            if partial:
                return [f"nested output partially overlaps: {(a0, a1)} and {(b0, b1)}"]
    return []


def check_threshold(kept: list[decode.ScoredSpan], rho: float) -> list[str]:
    bad = [s.key() for s in kept if s.is_none or not s.prob > rho]
    return [f"{len(bad)} kept spans fail threshold {rho}"] if bad else []


def check_round_trip(model: lexmodel.Model, sent: Sentence,
                     lex: Lexicon | None) -> tuple[lexmodel.Model, list[str]]:
    """Save and load ``model``; the loaded copy must score ``sent`` with
    bit-identical probabilities."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"round-trip-{os.getpid()}.ckpt")
    try:
        checkpoint.save(path, model)
        loaded, _ = checkpoint.load(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    _, spans, layouts, _ = lexmodel._prepare(model, sent, lex)
    before = model.score_spans(sent, layouts, spans)[0].values
    after = loaded.score_spans(sent, layouts, spans)[0].values
    if before.tobytes() != after.tobytes():
        return loaded, ["checkpoint round trip changed the probabilities"]
    return loaded, []


# ---------------------------------------------------------------------------
# workloads


@dataclass
class PassResult:
    """What one pass over a workload's inputs measured.

    ``main_s`` holds the durations of the training epochs, inference
    excluded, and ``main_sents`` the sentences they processed; a workload
    that only infers leaves both empty.

    ``infer_ms`` holds each inferred sentence's fastest latency in the
    pass, in input order; a sentence that never succeeded reads infinity.

    ``attempted`` counts operations: training batches, checkpoint round
    trips and inference sentences. ``failed`` counts those that raised or
    failed a check, and ``failures`` says why.
    """

    main_s: list[float] = field(default_factory=list)
    main_sents: int = 0
    mean_loss: float = math.nan
    infer_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    spans: int = 0
    survivors: int = 0

    def record(self, failures: list[str], ops: int = 1):
        self.attempted += ops
        if failures:
            self.failed += ops
            self.failures += failures


def _infer_all(model, sentences, lex, result: PassResult, rounds: int = 1,
               deadline: float = math.inf) -> list[Inferred]:
    """Infer every sentence ``rounds`` times, or in turn until
    ``time.perf_counter()`` reaches ``deadline``. ``result.infer_ms`` keeps
    each sentence's fastest latency over this and earlier calls; the first
    round's outputs are returned and counted in the pass's shape."""
    if not result.infer_ms:
        result.infer_ms = [math.inf] * len(sentences)
    first = not result.spans
    out = []
    for round_ in range(rounds):
        for i, sent in enumerate(sentences):
            if time.perf_counter() >= deadline:
                return out
            try:
                inf = infer_sentence(model, sent, lex)
            except Exception as exc:  # a failed sentence is counted, not fatal
                result.record([f"inference raised {exc!r}"])
                continue
            result.record(inf.failures)
            result.infer_ms[i] = min(result.infer_ms[i], inf.ms)
            if first and round_ == 0:
                result.spans += len(inf.targets)
                result.survivors += inf.survivors
                out.append(inf)
    return out


@dataclass
class TrainWorkload:
    """Train from seeded weights with ``train_model``, save and reload the
    best weights, and predict held-out sentences of ``HELD_OUT_LENGTHS``
    characters ``INFER_ROUNDS`` times each.

    The first pass predicts after training, with the model it trained and
    reloaded. Later passes predict after every epoch, untimed in the
    epoch, with that same model: training is deterministic, which each
    later pass checks, and latency samples spread over the whole run are
    what make its fastest values steady on a host whose speed drifts.
    """

    config: dict
    settings: dict
    n_train: int
    n_dev: int
    trains = True

    def prepare(self, seed: int) -> dict:
        """Set-up arguments found once per run; training needs none."""
        return {}

    def setup(self, seed: int):
        # the held-out pieces follow the dev sentences in the seed's stream,
        # so the train and dev sentences are those of make_corpus(seed)
        train, rest, words = synth.make_corpus(
            seed, n_train=self.n_train,
            n_dev=self.n_dev + pieces_needed(HELD_OUT_LENGTHS))
        dev = rest[:self.n_dev]
        held_out = sentences_of_lengths(rest[self.n_dev:], HELD_OUT_LENGTHS)
        lex = Lexicon(words)
        vocab = Vocab.build(train + dev, lex.words)
        for sent in train + dev + held_out:
            vocab.encode(sent)
        model = lexmodel.Model.build(lexmodel.ModelConfig(**self.config), vocab,
                                     np.random.default_rng(seed))
        settings = lexmodel.TrainSettings(**self.settings, seed=seed)
        return dict(train=train, dev=dev, held_out=held_out, lex=lex, model=model,
                    initial=model.snapshot(), settings=settings)

    def run_pass(self, state) -> PassResult:
        model, settings = state["model"], state["settings"]
        train, dev, lex = state["train"], state["dev"], state["lex"]
        held_out, trained = state["held_out"], state.get("trained")
        model.restore(state["initial"])
        batches = settings.epochs * math.ceil(len(train) / settings.batch_size)
        result = PassResult(main_sents=len(train) * settings.epochs)
        resumed = [time.perf_counter()]

        def after_epoch(_row):
            result.main_s.append(time.perf_counter() - resumed[0])
            if trained is not None:
                _infer_all(trained, held_out, lex, result, rounds=INFER_ROUNDS)
            resumed[0] = time.perf_counter()

        try:
            best, rows = lexmodel.train_model(model, train, dev, lex, settings,
                                              log_fn=after_epoch)
        except Exception as exc:  # a failed run is counted, not fatal
            result.record([f"training raised {exc!r}"], ops=batches)
            return result
        result.mean_loss = rows[-1].loss
        result.record([] if math.isfinite(result.mean_loss)
                      else [f"non-finite training loss {result.mean_loss}"], ops=batches)
        model.restore(best)
        loaded, failures = check_round_trip(model, dev[0], lex)
        result.record(failures)
        if trained is None:
            state["trained"] = loaded
            _infer_all(loaded, held_out, lex, result, rounds=INFER_ROUNDS)
        else:
            result.record(check_same_weights(trained, loaded))
        return result

    def fill(self, state, deadline: float) -> PassResult:
        """Latency samples of the trained model until ``deadline``; none
        when no pass trained one."""
        result = PassResult()
        if "trained" in state:
            _infer_all(state["trained"], state["held_out"], state["lex"], result,
                       rounds=sys.maxsize, deadline=deadline)
        return result


def check_same_weights(a: lexmodel.Model, b: lexmodel.Model) -> list[str]:
    """Two same-seed training runs must end with bit-identical weights."""
    sa, sb = a.snapshot(), b.snapshot()
    differ = sorted(k for k in sa if sa[k].tobytes() != sb[k].tobytes())
    return [f"same-seed training runs differ in {', '.join(differ)}"] if differ else []


@dataclass
class InferWorkload:
    """Score and decode long sentences with untrained paper-default weights
    loaded from a checkpoint."""

    trains = False

    def prepare(self, seed: int) -> dict:
        """Set-up arguments found once per run, outside the timed set-up:
        the ``none_bias_shift`` of the seed's weights on all sentences."""
        state = self.setup(seed, none_shift=0.0)
        return dict(none_shift=none_bias_shift(state["model"], state["sentences"],
                                               state["lex"]))

    def setup(self, seed: int, none_shift: float):
        pieces, _, words = synth.make_corpus(seed, n_train=pieces_needed(LONG_LENGTHS),
                                             n_dev=0)
        sentences = sentences_of_lengths(pieces, LONG_LENGTHS)
        lex = Lexicon(words)
        vocab = Vocab.build(sentences, lex.words)
        for sent in sentences:
            vocab.encode(sent)
        model = lexmodel.Model.build(lexmodel.ModelConfig(), vocab,
                                     np.random.default_rng(seed))
        model.params["head_out_b"].values[vocab.none_id] += none_shift
        loaded, failures = check_round_trip(model, sentences[0], lex)
        return dict(sentences=sentences, lex=lex, model=loaded,
                    setup_failures=failures)

    def fill(self, state, deadline: float) -> PassResult:
        """Sentences in turn, from the first, until ``deadline``."""
        result = PassResult()
        _infer_all(state["model"], state["sentences"], state["lex"], result,
                   rounds=sys.maxsize, deadline=deadline)
        return result

    def run_pass(self, state) -> PassResult:
        model, lex = state["model"], state["lex"]
        result = PassResult()
        result.record(state["setup_failures"])
        inferred = _infer_all(model, state["sentences"], lex, result)
        alpha = model.alpha()
        total = sum(float(ad.focal_loss_rows(ad.constant(inf.probs), inf.targets,
                                             alpha, model.config.gamma).values)
                    for inf in inferred)
        result.mean_loss = total / result.spans
        return result


def none_bias_shift(model: lexmodel.Model, sentences: list[Sentence],
                    lex: Lexicon | None) -> float:
    """The shift of the NONE output bias that leaves half the spans of
    ``sentences`` with a real type as argmax.

    With untrained weights that share swings between a few percent and
    nearly all spans from one seed to the next, and the cost of the flat
    decode grows with its square. Pinning it at one half, measured on every
    sentence of the workload, stands in for a model early in training.
    """
    none = model.vocab.none_id
    margins = []
    for sent in sentences:
        _, spans, layouts, _ = lexmodel._prepare(model, sent, lex)
        logp = np.log(model.score_spans(sent, layouts, spans)[0].values)
        margins.append(np.delete(logp, none, axis=1).max(axis=1) - logp[:, none])
    return float(np.median(np.concatenate(margins)))


WORKLOADS = {
    "train-small": TrainWorkload(
        config=SMALL_CONFIG,
        settings=dict(lr=1e-2, dropout=0.0, batch_size=16, epochs=3,
                      freeze_lex=False),
        n_train=200, n_dev=60),
    "infer-long": InferWorkload(),
}

