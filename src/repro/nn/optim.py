"""Optimizers operating on lists of parameters with externally computed
gradients (the functional :func:`repro.nn.autograd.grad` API).

``step(grads)`` takes gradients aligned with the parameter list.  This
layout makes DP-SGD (which post-processes per-example gradients before
the update) a thin wrapper rather than a separate optimizer.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from ..telemetry.state import STATE as _TELEMETRY
from .autograd import Tensor
from .layers import Parameter
from .tape import RECORDER as _REC, scratch as _scratch

__all__ = ["Optimizer", "SGD", "Adam", "clip_global_norm"]


class Optimizer:
    """Base optimizer over a fixed parameter list.

    Subclasses implement :meth:`_apply_step`; the public :meth:`step`
    wraps it with optional telemetry timing (``nn.optimizer_step_seconds``
    histogram, behind the same opt-in flag as per-layer forward timing)
    so enabling metrics never changes update arithmetic.
    """

    def __init__(self, params: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr

    def step(self, grads: Sequence[Tensor]) -> None:
        if not _TELEMETRY.nn_timing:
            self._apply_step(grads)
            return
        start = time.perf_counter()
        self._apply_step(grads)
        _TELEMETRY.registry.histogram(
            f"nn.optimizer_step_seconds.{type(self).__name__}").observe(
            time.perf_counter() - start)

    def _apply_step(self, grads: Sequence[Tensor]) -> None:
        raise NotImplementedError

    def _check(self, grads: Sequence[Tensor]) -> List[np.ndarray]:
        if len(grads) != len(self.params):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        return [g.data if isinstance(g, Tensor) else np.asarray(g) for g in grads]


class SGD(Optimizer):
    """Plain SGD with optional momentum."""

    def __init__(self, params: Sequence[Parameter], lr: float = 0.01,
                 momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def _apply_step(self, grads: Sequence[Tensor]) -> None:
        # In-place update, the only form a tape can record (reassigning
        # p.data would orphan every tape holding the old storage).
        # ``v * lr`` commutes bitwise with ``lr * v``, so this equals
        # ``p.data - lr * v`` bit for bit.
        grads = self._check(grads)
        rec = _REC.active
        for p, g, v in zip(self.params, grads, self.velocity):
            s = _scratch(v.shape)
            np.multiply(v, self.momentum, out=v)
            np.add(v, g, out=v)
            np.multiply(v, self.lr, out=s)
            np.subtract(p.data, s, out=p.data)
            if rec:
                _REC.k(np.multiply, (v, self.momentum), v)
                _REC.k(np.add, (v, g), v)
                _REC.k(np.multiply, (v, self.lr), s)
                _REC.k(np.subtract, (p.data, s), p.data)


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015), the optimizer DoppelGANger trains with."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 beta1: float = 0.5, beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0
        # Bias corrections live in 0-d arrays so a recorded tape can
        # read fresh values on every replay: a "host" tape entry calls
        # ``_advance`` (bumping ``t`` and rewriting these buffers)
        # before the update kernels that consume them.
        self._b1 = np.empty(())
        self._b2 = np.empty(())

    def _advance(self) -> None:
        self.t += 1
        self._b1[()] = 1.0 - self.beta1**self.t
        self._b2[()] = 1.0 - self.beta2**self.t

    def _apply_step(self, grads: Sequence[Tensor]) -> None:
        # In-place update (see SGD).  It equals the textbook formula
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p = p - lr * (m / bias1) / (sqrt(v / bias2) + eps)
        # bit for bit, because scalar broadcasts commute exactly
        # (``g * (1-b)`` == ``(1-b) * g``; a 0-d float64 operand
        # broadcasts like the equal Python float) and the elementwise
        # evaluation order is otherwise preserved — e.g. ``(1-b2)*g*g``
        # groups as ``((1-b2)*g)*g`` and the denominator is
        # ``sqrt(v/bias2) + eps`` before the divide.
        grads = self._check(grads)
        self._advance()
        rec = _REC.active
        if rec:
            _REC.host(self._advance)
        bias1, bias2 = self._b1, self._b2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            s = _scratch(g.shape)
            u = _scratch(g.shape)
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=s)
            np.add(m, s, out=m)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, 1.0 - self.beta2, out=s)
            np.multiply(s, g, out=s)
            np.add(v, s, out=v)
            np.divide(v, bias2, out=u)
            np.sqrt(u, out=u)
            np.add(u, self.eps, out=u)
            np.divide(m, bias1, out=s)
            np.multiply(s, self.lr, out=s)
            np.divide(s, u, out=s)
            np.subtract(p.data, s, out=p.data)
            if rec:
                _REC.k(np.multiply, (m, self.beta1), m)
                _REC.k(np.multiply, (g, 1.0 - self.beta1), s)
                _REC.k(np.add, (m, s), m)
                _REC.k(np.multiply, (v, self.beta2), v)
                _REC.k(np.multiply, (g, 1.0 - self.beta2), s)
                _REC.k(np.multiply, (s, g), s)
                _REC.k(np.add, (v, s), v)
                _REC.k(np.divide, (v, bias2), u)
                _REC.k(np.sqrt, (u,), u)
                _REC.k(np.add, (u, self.eps), u)
                _REC.k(np.divide, (m, bias1), s)
                _REC.k(np.multiply, (s, self.lr), s)
                _REC.k(np.divide, (s, u), s)
                _REC.k(np.subtract, (p.data, s), p.data)

    def reset_state(self) -> None:
        """Forget moment estimates (used when fine-tuning a warm start)."""
        for m, v in zip(self.m, self.v):
            m[...] = 0.0
            v[...] = 0.0
        self.t = 0


def clip_global_norm(grads: Sequence[np.ndarray], max_norm: float) -> List[np.ndarray]:
    """Scale gradients so their joint L2 norm is at most ``max_norm``."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total <= max_norm or total == 0.0:
        return [np.asarray(g) for g in grads]
    scale = max_norm / total
    return [g * scale for g in grads]
