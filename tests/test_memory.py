"""Training reuses the memory numpy frees instead of faulting it in again.

Importing lexner sets glibc's mmap and trim thresholds, so a training step's
temporaries come from heap pages the previous step already touched. The
tests count minor page faults (``ru_minflt``); without the setting a
minibatch of the acceptance "small" config costs several hundred.

Each count is taken in a fresh interpreter. Without the setting, glibc
raises its thresholds after freeing a large mapped array, so a process that
earlier tests have run in can hide the faults a new process would take.
"""
import ctypes
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import lexner
from lexner.corpus import Vocab
from lexner.lexicon import Lexicon
from lexner.model import Model, ModelConfig, TrainSettings, train_model
from lexner.synth import make_corpus

from test_acceptance import OVERFIT_CONFIG

pytestmark = pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                                reason="the C library has no mallopt")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def training_faults() -> tuple[int, int]:
    """Minor faults of three training passes after a warm-up, and the
    number of minibatches they ran."""
    train, dev, words = make_corpus(3, n_train=64, n_dev=16)
    lex = Lexicon(words)
    vocab = Vocab.build(train + dev, lex.words)
    model = Model.build(ModelConfig(**OVERFIT_CONFIG), vocab, np.random.default_rng(3))
    initial = model.snapshot()
    settings = TrainSettings(lr=1e-2, dropout=0.0, batch_size=16, epochs=2,
                             freeze_lex=False, seed=3)
    passes = 3
    train_model(model, train, dev, lex, settings)
    before = minor_faults()
    for _ in range(passes):
        model.restore(initial)
        train_model(model, train, dev, lex, settings)
    minibatches = passes * settings.epochs * math.ceil(len(train) / settings.batch_size)
    return minor_faults() - before, minibatches


def alloc_loop_faults() -> tuple[int, int]:
    """Minor faults of steps that allocate a 1.4 MB array and a second one
    while the first is live, then free both, and the number of steps.

    Without the setting, freeing the first such array raises the mmap
    threshold above it and the trim threshold to twice that, and the two
    arrays freed together then exceed the latter: each step gives their
    pages back to the kernel and faults them in again, about 670 faults.
    """
    n = 180_000

    def step():
        a = np.ones(n)
        b = a + 1.0
        return float(b[-1])

    for _ in range(3):
        step()
    before = minor_faults()
    for _ in range(100):
        step()
    return minor_faults() - before, 100


def fresh_count(name: str) -> tuple[int, int]:
    """``name()`` of this module, run in a new interpreter."""
    path = [os.path.dirname(os.path.dirname(lexner.__file__)),
            os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-c", f"import test_memory; print(*test_memory.{name}())"],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    faults, steps = map(int, done.stdout.split())
    return faults, steps


def test_training_passes_fault_no_pages_back_in():
    faults, minibatches = fresh_count("training_faults")
    assert faults < 50 * minibatches, f"{faults} minor faults over {minibatches} minibatches"


def test_large_temporaries_reuse_freed_memory():
    faults, steps = fresh_count("alloc_loop_faults")
    assert faults < steps, f"{faults} minor faults over {steps} steps"
