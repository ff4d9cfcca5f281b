"""Command-line entry point: train, eval, predict, and sweep subcommands.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric failure
during training.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import checkpoint as ckpt
from . import decode
from .autodiff import ConfigError
from .config import OPTIONS, RunConfig, _coerce, load_config
from .corpus import PAD, UNK, ParseError, Vocab, load_embeddings, read_corpus, \
    read_raw
from .lexicon import Lexicon
from .model import Model, TrainSettings, prepare_corpus, score_corpus, train_model
from .optim import DivergenceError


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value configuration file")
    for name in OPTIONS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name,
                            default=None, metavar="V")


def _collect(args) -> tuple[RunConfig, set[str]]:
    overrides = {name: _coerce(name, getattr(args, name)) for name in OPTIONS
                 if getattr(args, name) is not None}
    return load_config(args.config, overrides)


def _require_file(path: str, what: str):
    if not path:
        raise ConfigError(f"no {what} path configured")
    try:
        open(path, "rb").close()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None


def _load_checkpoint(path: str, cfg: RunConfig, explicit: set[str]):
    """The checkpoint's model, checked against the structural options set
    explicitly, and the lexicon to match with (None when the run disables
    it or the checkpoint has none)."""
    _require_file(path, "checkpoint")
    model, extra = ckpt.load(path)
    ckpt.check_structure(cfg, model.config, explicit)
    words = [w for w in model.vocab.lex.symbols if w not in (PAD, UNK)]
    if not (cfg.use_lexicon and words):
        return model, None
    freqs = extra.get("lex_freqs", {})
    if not isinstance(freqs, dict):
        raise ConfigError(f"{path}: lex_freqs must be an object, got {freqs!r}")
    for word, freq in freqs.items():
        if type(freq) not in (int, float) or not math.isfinite(freq):
            raise ConfigError(f"{path}: lex_freqs[{word!r}] must be a finite number, "
                              f"got {freq!r}")
    return model, Lexicon(words, {k: float(v) for k, v in freqs.items()})


def _score_sentences(model: Model, lex: Lexicon | None, sents, batch_size: int,
                     want_attention=False):
    return score_corpus(model, prepare_corpus(model, sents, lex), want_attention,
                        batch_size)


def _prf(p: float, r: float, f1: float) -> str:
    return f"P={100 * p:.2f} R={100 * r:.2f} F1={100 * f1:.2f}"


# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg, _ = _collect(args)
    _require_file(cfg.train, "training corpus")
    if cfg.use_lexicon:
        _require_file(cfg.lexicon, "lexicon")
    train_sents = read_corpus(cfg.train, cfg.corpus_format, cfg.max_sentence_len)
    dev_sents = (read_corpus(cfg.dev, cfg.corpus_format, cfg.max_sentence_len)
                 if cfg.dev else [])
    lex = Lexicon.from_file(cfg.lexicon) if cfg.use_lexicon else None
    vocab = Vocab.build(train_sents + dev_sents, lex.words if lex else [])
    rng = np.random.default_rng(cfg.seed)
    mc = cfg.model_config()
    char_emb = lex_emb = None
    if cfg.char_embeddings:
        char_emb, _ = load_embeddings(cfg.char_embeddings, vocab.chars,
                                      mc.d_char, rng, reserved_rows=2)
    if cfg.lex_embeddings:
        lex_emb, _ = load_embeddings(cfg.lex_embeddings, vocab.lex,
                                     mc.d_lex, rng, reserved_rows=2)
    model = Model.build(mc, vocab, rng, lex_embeddings=lex_emb,
                        char_embeddings=char_emb)
    best, rows = train_model(model, train_sents, dev_sents, lex,
                             cfg.train_settings(),
                             log_fn=lambda r: print(
                                 f"epoch {r.epoch} [{r.split}] "
                                 f"P={r.precision:.4f} R={r.recall:.4f} "
                                 f"F1={r.f1:.4f} loss={r.loss:.6f}"))
    model.restore(best)
    extra = {"run_config": {name: getattr(cfg, name) for name in OPTIONS}}
    if lex is not None and lex.freqs:
        extra["lex_freqs"] = lex.freqs
    ckpt.save(cfg.checkpoint, model, extra)
    with open(cfg.log, "w", encoding="utf-8") as fh:
        fh.write("epoch,split,P,R,F1,loss\n")
        for r in rows:
            fh.write(f"{r.epoch},{r.split},{r.precision:.6f},{r.recall:.6f},"
                     f"{r.f1:.6f},{r.loss:.8f}\n")
    print(f"wrote {cfg.checkpoint} and {cfg.log}")
    return 0


def cmd_eval(args) -> int:
    cfg, explicit = _collect(args)
    model, lex = _load_checkpoint(cfg.checkpoint, cfg, explicit)
    path = {"train": cfg.train, "dev": cfg.dev, "test": cfg.test}[args.split]
    _require_file(path, f"{args.split} corpus")
    sents = read_corpus(path, cfg.corpus_format, cfg.max_sentence_len)
    pred_sets = decode.key_sets(decode.decode_corpus(
        _score_sentences(model, lex, sents, cfg.batch_size), cfg.rho, cfg.nested))
    gold_sets = [s.entities for s in sents]
    print("micro " + _prf(*decode.evaluate(pred_sets, gold_sets)))
    for etype, prf in decode.evaluate_by_type(pred_sets, gold_sets).items():
        print(f"{etype}: " + _prf(*prf))
    return 0


def cmd_predict(args) -> int:
    cfg, explicit = _collect(args)
    model, lex = _load_checkpoint(cfg.checkpoint, cfg, explicit)
    path = args.input or cfg.test
    _require_file(path, "input")
    sents = (read_raw(path, cfg.max_sentence_len) if args.raw else
             read_corpus(path, cfg.corpus_format, cfg.max_sentence_len))
    kept = decode.decode_corpus(
        _score_sentences(model, lex, sents, cfg.batch_size,
                         want_attention=args.dump_attention),
        cfg.rho, cfg.nested)
    lines = []
    for sid, spans in enumerate(kept):
        for s in spans:
            lines.append(f"{sid}\t{s.start}\t{s.end}\t{s.type}\t{s.prob:.6f}")
            if args.dump_attention and s.attention is not None:
                weights, labels = s.attention
                ws = " ".join(f"{wv:.6f}" for wv in weights)
                lines.append(f"#attn\t{sid}\t{s.start}\t{s.end}\t{ws}\t"
                             + "|".join(labels))
    if any(s.entities for s in sents):   # raw input has no gold entities
        lines.append("# micro " + _prf(*decode.evaluate(
            decode.key_sets(kept), [s.entities for s in sents])))
    out = args.output_file or cfg.output
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    print(f"wrote {out} ({sum(len(spans) for spans in kept)} entities)")
    return 0


def _parse_rhos(text: str) -> list[float]:
    rhos = [_coerce("rho", x) for x in text.split(",")]
    for rho in rhos:
        TrainSettings(rho=rho).validate()
    return rhos


def cmd_sweep(args) -> int:
    cfg, explicit = _collect(args)
    _require_file(cfg.dev, "dev corpus")
    rhos = _parse_rhos(args.rhos) if args.rhos else \
        [round(0.1 * i, 1) for i in range(10)]
    out_rows = ["gamma,rho,F1"]
    sents = read_corpus(cfg.dev, cfg.corpus_format, cfg.max_sentence_len)
    for path in args.checkpoints:
        model, lex = _load_checkpoint(path, cfg, explicit)
        scored = _score_sentences(model, lex, sents, cfg.batch_size)
        golds = [s.entities for s in sents]
        for rho in rhos:
            preds = decode.key_sets(decode.decode_corpus(scored, rho, cfg.nested))
            _, _, f1 = decode.evaluate(preds, golds)
            out_rows.append(f"{model.config.gamma},{rho},{f1:.6f}")
    text = "\n".join(out_rows) + "\n"
    if args.output_file:
        with open(args.output_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexner",
        description="Fragment-based named entity recognizer with a "
                    "lexicon-memory attention model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    _add_common(p_eval)
    p_eval.add_argument("--split", choices=["train", "dev", "test"],
                        default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="emit entities for an input file")
    _add_common(p_pred)
    p_pred.add_argument("--input", help="input file (defaults to the test path)")
    p_pred.add_argument("--raw", action="store_true",
                        help="input is plain text, one sentence per line; it has "
                             "no segmentation or POS columns, so every character "
                             "gets S and <unk>, and a model trained with those "
                             "features finds few entities")
    p_pred.add_argument("--dump-attention", action="store_true")
    p_pred.add_argument("--output-file", help="output path (defaults to config)")
    p_pred.set_defaults(func=cmd_predict)

    p_sweep = sub.add_parser("sweep", help="dev F1 over a decoding threshold grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--checkpoints", nargs="+", required=True)
    p_sweep.add_argument("--rhos", help="comma-separated threshold list")
    p_sweep.add_argument("--output-file")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
