"""Adam optimizer with decoupled weight decay and a sparse embedding mode."""
from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor


class DivergenceError(RuntimeError):
    """Raised when gradients or losses become non-finite."""


class Adam:
    """Bias-corrected Adam over named parameters.

    Decoupled weight decay multiplies parameters by (1 - lr * wd) before the
    moment update. Parameters named in ``sparse`` update only the rows
    recorded in their ``touched_rows``, including the moment buffers;
    untouched rows stay bit-identical.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 sparse: set[str] | frozenset[str] = frozenset()):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.sparse = set(sparse) & set(self.params)
        self.t = 0
        self.state = {name: {"m": np.zeros_like(p.values), "v": np.zeros_like(p.values)}
                      for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            grad = p.grad
            if grad is None:
                continue
            if not np.isfinite(grad).all():
                raise DivergenceError(f"non-finite gradient in parameter '{name}'")
            st = self.state[name]
            if name not in self.sparse:
                idx = slice(None)
            elif p.touched_rows is None:
                continue
            else:
                idx = np.flatnonzero(p.touched_rows)
            g = grad[idx]
            if self.weight_decay:
                p.values[idx] *= 1.0 - self.lr * self.weight_decay
            st["m"][idx] = self.beta1 * st["m"][idx] + (1.0 - self.beta1) * g
            st["v"][idx] = self.beta2 * st["v"][idx] + (1.0 - self.beta2) * g * g
            m_hat = st["m"][idx] / bc1
            v_hat = st["v"][idx] / bc2
            p.values[idx] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm
