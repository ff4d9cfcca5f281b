"""Versioned binary checkpoints: config echo + vocab + named tensors.

Layout: a magic line, a JSON header line (config, vocabulary symbol lists,
tensor manifest), then the raw little-endian float64 bytes of each tensor
in manifest order. The writer is fully deterministic, so identical models
produce byte-identical files and round-trips are bit-exact. A file is
written whole under a temporary name and then moved over the old one, so
a failed save leaves the old checkpoint as it was.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .autodiff import ConfigError, parameter
from .corpus import SymbolTable, Vocab
from .model import Model, ModelConfig, param_shapes, vocab_sizes

MAGIC = b"lexner-checkpoint v1\n"

# fields that must agree between a checkpoint and a requested configuration
STRUCTURAL = [f for f in ModelConfig.__dataclass_fields__]


def save(path: str, model: Model, extra: dict | None = None):
    header = {
        "config": asdict(model.config),
        "vocab": {name: getattr(model.vocab, name).symbols for name in Vocab.TABLES},
        "tensors": [{"name": k, "shape": list(v.values.shape)}
                    for k, v in model.params.items()],
        "extra": extra or {},
    }
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for k, v in model.params.items():
                fh.write(np.ascontiguousarray(v.values, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load(path: str) -> tuple[Model, dict]:
    """Read a checkpoint. Every defect of the file, from a bad header to a
    tensor manifest that does not fit the stored config, is a ConfigError."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a recognized checkpoint file")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            config = ModelConfig(**header["config"])
            vocab = Vocab()
            for name in Vocab.TABLES:
                setattr(vocab, name, SymbolTable(header["vocab"][name]))
            manifest = [(entry["name"], tuple(int(d) for d in entry["shape"]))
                        for entry in header["tensors"]]
            extra = header["extra"]
            config.validate()
            _check_manifest(path, config, vocab, manifest)
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed checkpoint header: {exc!r}") from None
        params = {}
        for name, shape in manifest:
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ConfigError(f"{path}: truncated tensor {name}")
            params[name] = parameter(np.frombuffer(raw, dtype="<f8").reshape(shape))
        if fh.read(1):
            raise ConfigError(f"{path}: trailing bytes after the last tensor")
    return Model(config, vocab, params), extra


def _check_manifest(path: str, config: ModelConfig, vocab: Vocab,
                    manifest: list[tuple[str, tuple[int, ...]]]):
    """The stored vocabulary must fit the stored config, and the tensors
    must be those ``Model.build`` makes for that config, in that order."""
    for name, size in vocab_sizes(vocab).items():
        if getattr(config, name) != size:
            raise ConfigError(f"{path}: config has {name}={getattr(config, name)} "
                              f"but the vocabulary has {size} entries")
    want = param_shapes(config)
    if manifest != list(want.items()):
        got = dict(manifest)
        missing = [n for n in want if n not in got]
        wrong = [f"{n} {s} (want {want.get(n)})" for n, s in manifest if want.get(n) != s]
        raise ConfigError(f"{path}: tensor manifest does not fit the config: "
                          f"missing {missing or '-'}, unexpected or mis-shaped "
                          f"{wrong or '-'}")


def check_structure(config: ModelConfig, loaded: ModelConfig,
                    overridden: set[str]):
    """Reject structural mismatches between a checkpoint and explicit flags."""
    for name in overridden & set(STRUCTURAL):
        if getattr(config, name) != getattr(loaded, name):
            raise ConfigError(
                f"checkpoint has {name}={getattr(loaded, name)!r} but "
                f"{name}={getattr(config, name)!r} was requested")
