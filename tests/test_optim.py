import numpy as np
import pytest

from lexner import autodiff as ad
from lexner.optim import Adam, DivergenceError, clip_global_norm

import span_reference as ref


def test_zero_gradient_zero_decay_leaves_params():
    p = ad.parameter([1.0, 2.0])
    p.ensure_grad()
    opt = Adam({"p": p}, lr=1e-3, weight_decay=0.0)
    opt.step()
    assert np.array_equal(p.values, [1.0, 2.0])


def test_quadratic_step_decreases():
    w = ad.parameter([1.0])
    opt = Adam({"w": w}, lr=1e-3, weight_decay=0.0)
    with ad.Tape() as tape:
        loss = ref.sum_all(ref.mul(w, w))
        tape.backward(loss)
    opt.step()
    assert w.values[0] < 1.0


def test_sparse_step_leaves_untouched_rows_bit_identical():
    rng = np.random.default_rng(0)
    table = ad.parameter(rng.normal(size=(6, 4)))
    before = table.values.copy()
    opt = Adam({"t": table}, lr=1e-3, weight_decay=1e-7, sparse={"t"})
    with ad.Tape() as tape:
        loss = ref.sum_all(ad.gather_rows(table, [3]))
        tape.backward(loss)
    opt.step()
    mask = np.ones(6, dtype=bool)
    mask[3] = False
    assert np.array_equal(table.values[mask], before[mask])
    assert not np.array_equal(table.values[3], before[3])
    assert np.array_equal(opt.state["t"]["m"][mask], np.zeros((5, 4)))
    assert np.array_equal(opt.state["t"]["v"][mask], np.zeros((5, 4)))


def test_sparse_weight_decay_only_touched_rows():
    table = ad.parameter(np.ones((4, 2)))
    opt = Adam({"t": table}, sparse={"t"}, weight_decay=0.1, lr=0.0)
    # lr 0 isolates the decay term, which also scales with lr: no-op
    with ad.Tape() as tape:
        tape.backward(ref.sum_all(ad.gather_rows(table, [1])))
    opt.step()
    assert np.array_equal(table.values, np.ones((4, 2)))


def test_nan_gradient_aborts_with_name():
    p = ad.parameter([1.0])
    p.ensure_grad()
    p.grad[0] = np.nan
    opt = Adam({"weights": p}, lr=1e-3, weight_decay=1e-7)
    with pytest.raises(DivergenceError, match="weights"):
        opt.step()


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_gradient_aborts_with_clipping_off(bad):
    # with clipping on, an infinite norm scales the gradient to NaN; with it
    # off, the infinity reaches Adam and would make the weight NaN
    p = ad.parameter(np.ones((2, 2)))
    p.ensure_grad()
    p.grad[0, 0] = bad
    clip_global_norm({"weights": p}, 0.0)
    opt = Adam({"weights": p}, lr=1e-3, weight_decay=1e-7)
    with pytest.raises(DivergenceError, match="non-finite gradient in parameter 'weights'"):
        opt.step()
    assert np.array_equal(p.values, np.ones((2, 2)))


def test_matches_reference_adam_dense():
    """One step against a direct transcription of the update rule."""
    rng = np.random.default_rng(5)
    vals = rng.normal(size=3)
    grad = rng.normal(size=3)
    p = ad.parameter(vals.copy())
    p.ensure_grad()
    p.grad[...] = grad
    lr, wd, b1, b2, eps = 1e-3, 1e-2, 0.9, 0.999, 1e-8
    opt = Adam({"p": p}, lr=lr, weight_decay=wd)
    opt.step()
    ref = vals * (1 - lr * wd)
    m = (1 - b1) * grad
    v = (1 - b2) * grad * grad
    ref -= lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    assert np.allclose(p.values, ref, atol=1e-15)


def test_clip_global_norm():
    a = ad.parameter([3.0])
    b = ad.parameter([4.0])
    for t in (a, b):
        t.ensure_grad()
        t.grad[...] = t.values
    norm = clip_global_norm({"a": a, "b": b}, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.hypot(a.grad[0], b.grad[0]) == pytest.approx(1.0)
