"""Versioned binary checkpoints: config echo + vocab + named tensors.

Layout: a magic line, a JSON header line (config, vocabulary symbol lists,
tensor manifest, extra), then the raw little-endian float64 bytes of each
tensor in manifest order, each written from and read into the array the
model keeps, so neither side holds a second copy. The vocabulary alone
sizes the embedding tables and the type outputs. The writer is fully
deterministic, so identical models produce byte-identical files and
round-trips are bit-exact. A file is written whole under a temporary name
and then moved over the old one, so a failed save leaves the old
checkpoint as it was.
"""
from __future__ import annotations

import json
import os
import typing
from dataclasses import asdict

import numpy as np

from .autodiff import ConfigError, Tensor
from .corpus import SymbolTable, Vocab
from .model import Model, ModelConfig, param_shapes

MAGIC = b"lexner-checkpoint v2\n"

# fields that must agree between a checkpoint and a requested configuration
STRUCTURAL = [f for f in ModelConfig.__dataclass_fields__]

# the JSON types a config value of each declared type may take: an int
# field takes no bool, a float field also takes an int
CONFIG_TYPES = {name: {float: (int, float)}.get(t, (t,))
                for name, t in typing.get_type_hints(ModelConfig).items()}


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
            for v in model.params.values():
                fh.write(np.ascontiguousarray(v.values, dtype="<f8"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load(path: str) -> tuple[Model, dict]:
    """Read a checkpoint. Every defect of the file, from a bad header or a
    tensor manifest that does not fit the stored config and vocabulary to a
    NaN or infinite weight, is a ConfigError."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a recognized checkpoint file")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            config = ModelConfig(**header["config"])
            for name, types in CONFIG_TYPES.items():
                value = getattr(config, name)
                if type(value) not in types:
                    raise ConfigError(f"{path}: config {name} must be "
                                      f"{types[-1].__name__}, got {value!r}")
            vocab = Vocab()
            for name in Vocab.TABLES:
                setattr(vocab, name, SymbolTable(header["vocab"][name]))
            manifest = [(entry["name"], tuple(int(d) for d in entry["shape"]))
                        for entry in header["tensors"]]
            extra = header["extra"]
            if not isinstance(extra, dict):
                raise ConfigError(f"{path}: checkpoint extra must be an object, "
                                  f"got {extra!r}")
            try:
                config.validate()
            except ConfigError as exc:
                raise ConfigError(f"{path}: {exc}") from None
            _check_manifest(path, config, vocab, manifest)
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed checkpoint header: {exc!r}") from None
        params = {}
        for name, shape in manifest:
            values = np.empty(shape, dtype="<f8")
            if fh.readinto(values) != values.nbytes:
                raise ConfigError(f"{path}: truncated tensor {name}")
            if not np.isfinite(values).all():
                raise ConfigError(f"{path}: tensor {name} holds a non-finite value")
            params[name] = Tensor(values, tracked=True)
        if fh.read(1):
            raise ConfigError(f"{path}: trailing bytes after the last tensor")
    return Model(config, vocab, params), extra


def _check_manifest(path: str, config: ModelConfig, vocab: Vocab,
                    manifest: list[tuple[str, tuple[int, ...]]]):
    """The tensors must be those ``Model.build`` makes for the stored config
    and vocabulary, in that order."""
    want = param_shapes(config, vocab)
    if manifest != list(want.items()):
        got = dict(manifest)
        missing = [n for n in want if n not in got]
        wrong = [f"{n} {s} (want {want.get(n)})" for n, s in manifest if want.get(n) != s]
        raise ConfigError(f"{path}: tensor manifest does not fit the config and "
                          f"vocabulary: missing {missing or '-'}, unexpected or "
                          f"mis-shaped {wrong or '-'}")


def check_structure(config: ModelConfig, loaded: ModelConfig,
                    overridden: set[str]):
    """Reject structural mismatches between a checkpoint and explicit flags."""
    for name in overridden & set(STRUCTURAL):
        if getattr(config, name) != getattr(loaded, name):
            raise ConfigError(
                f"checkpoint has {name}={getattr(loaded, name)!r} but "
                f"{name}={getattr(config, name)!r} was requested")
