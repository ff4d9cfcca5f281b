"""Run configuration: key = value files with command-line overrides."""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

from .autodiff import ConfigError
from .corpus import FORMATS, open_text
from .model import VOCAB_FIELDS, ModelConfig, TrainSettings


@dataclass
class RunConfig(TrainSettings, ModelConfig):
    """Every option of a run: the model structure of ``ModelConfig``, the
    training and decoding knobs of ``TrainSettings``, and the paths below."""

    train: str = ""
    dev: str = ""
    test: str = ""
    lexicon: str = ""
    char_embeddings: str = ""
    lex_embeddings: str = ""
    checkpoint: str = "model.ckpt"
    log: str = "epochs.csv"
    output: str = "predictions.tsv"
    corpus_format: str = "column-bmes"
    max_sentence_len: int = 256

    def validate(self):
        TrainSettings.validate(self)
        if self.corpus_format not in FORMATS:
            raise ConfigError(f"unknown corpus format {self.corpus_format!r}")
        if self.max_sentence_len < 1:
            raise ConfigError(f"max_sentence_len must be >= 1, got {self.max_sentence_len}")
        ModelConfig.validate(self)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def train_settings(self) -> TrainSettings:
        return TrainSettings(**{f.name: getattr(self, f.name)
                                for f in fields(TrainSettings)})


# option name -> declared type; the vocabulary sizes come from the data
OPTIONS = {name: kind for name, kind in get_type_hints(RunConfig).items()
           if name not in VOCAB_FIELDS}


def _coerce(name: str, raw: str):
    kind = OPTIONS[name]
    if kind is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{name}: expected {what}, got {raw!r}") from None
    return raw


def load_config(path: str | None, overrides: dict[str, object]
                ) -> tuple[RunConfig, set[str]]:
    """Build a RunConfig from an optional file plus overrides.

    Returns the config and the set of explicitly assigned field names.
    """
    cfg = RunConfig()
    explicit: set[str] = set()
    if path:
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
                setattr(cfg, key, _coerce(key, raw.strip()))
                explicit.add(key)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in OPTIONS:
            raise ConfigError(f"unknown option {key!r}")
        setattr(cfg, key, value)
        explicit.add(key)
    cfg.validate()
    return cfg, explicit
