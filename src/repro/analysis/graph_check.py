"""Semantic checker: every ``repro.nn`` op must survive double backprop.

The WGAN-GP gradient penalty (paper §4, via DoppelGANger) puts the
*norm of an input gradient* inside the loss, so training differentiates
through a gradient — every op's VJP must itself be built from
differentiable ``Tensor`` operations.  An op whose backward drops to
raw numpy (returns ``Tensor(np.something(...))`` computed outside the
graph) still produces correct *first-order* gradients, which is why
nothing notices until the penalty term silently trains on a zero
second-order contribution.

Unlike the AST rules this check is semantic: it imports ``repro.nn``,
builds each registered op's grad-of-grad graph on tiny deterministic
tensors, and compares the analytic second-order directional derivative
against a central finite difference of the first-order one.  A severed
backward yields an exactly-zero analytic value against a non-zero
finite difference — caught; a genuinely linear op (``sum``, ``matmul``)
yields zero against zero — passes.

The registry below covers the full differentiable surface of
``repro.nn`` (autograd ops + functional losses).  Tests extend it via
:func:`register_op` to prove the checker rejects broken backwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = ["OpSpec", "OpReport", "register_op", "unregister_op",
           "registered_op_names", "get_op_spec", "check_op",
           "check_double_backprop"]


@dataclass(frozen=True)
class OpSpec:
    """One op under test: deterministic inputs + a Tensor program.

    ``make_inputs`` returns the leaf arrays; ``apply`` maps the
    corresponding leaf Tensors through the op (output may be any
    shape — the harness scalarizes with fixed weights).  ``apply``
    must be deterministic across calls (seed any internal RNG).
    """

    name: str
    make_inputs: Callable[[], List[np.ndarray]]
    apply: Callable[[Sequence], "object"]


@dataclass(frozen=True)
class OpReport:
    """Outcome of one op's double-backprop check."""

    name: str
    ok: bool
    analytic: float
    finite_diff: float
    error: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name, "ok": self.ok, "analytic": self.analytic,
            "finite_diff": self.finite_diff, "error": self.error,
            "detail": self.detail,
        }


_REGISTRY: Dict[str, OpSpec] = {}


def register_op(spec: OpSpec) -> OpSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate op spec {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_op(name: str) -> None:
    _REGISTRY.pop(name, None)


def registered_op_names() -> List[str]:
    _build_default_specs()
    return sorted(_REGISTRY)


def get_op_spec(name: str) -> OpSpec:
    """Look up one registered spec (the tape parity tests replay the
    same op programs the double-backprop checker exercises)."""
    _build_default_specs()
    return _REGISTRY[name]


# ----------------------------------------------------------------------
# The harness.

def _directional_grad(spec: OpSpec, arrays: List[np.ndarray],
                      out_weights: np.ndarray,
                      grad_weights: List[np.ndarray],
                      create_graph: bool):
    """S(x) = sum_i <dL/dx_i, w_i> for L = <op(x), w_out>; returns
    (leaf tensors, S as a Tensor)."""
    from ..nn import Tensor, grad

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = spec.apply(leaves)
    loss = (out * Tensor(out_weights)).sum()
    grads = grad(loss, leaves, create_graph=create_graph)
    s = None
    for g, w in zip(grads, grad_weights):
        term = (g * Tensor(w)).sum()
        s = term if s is None else s + term
    return leaves, s


def check_op(spec: OpSpec, eps: float = 1e-5,
             tolerance: float = 5e-4) -> OpReport:
    """Compare analytic vs finite-difference second-order directional
    derivatives of one op.  See the module docstring for why a severed
    backward cannot pass."""
    from ..nn import Tensor, grad

    rng = np.random.default_rng(20220822)  # fixed: results are frozen
    try:
        arrays = [np.asarray(a, dtype=np.float64)
                  for a in spec.make_inputs()]
        out_shape = spec.apply([Tensor(a) for a in arrays]).shape
        out_weights = rng.uniform(0.5, 1.5, size=out_shape)
        grad_weights = [rng.uniform(0.5, 1.5, size=a.shape) for a in arrays]
        direction = [rng.uniform(-1.0, 1.0, size=a.shape) for a in arrays]

        # Analytic: differentiate S(x) once more along `direction`.
        leaves, s = _directional_grad(
            spec, arrays, out_weights, grad_weights, create_graph=True)
        if s.requires_grad:
            second = grad(s, leaves)
            analytic = float(sum(
                float((h.data * d).sum())
                for h, d in zip(second, direction)))
        else:
            # The first-order gradient graph carries no differentiable
            # parents: either the op is linear (fine) or its backward
            # is severed (the finite difference below exposes which).
            analytic = 0.0

        # Central finite difference of S along the same direction.
        def s_value(step: float) -> float:
            shifted = [a + step * d for a, d in zip(arrays, direction)]
            _, s_shifted = _directional_grad(
                spec, shifted, out_weights, grad_weights,
                create_graph=True)
            return float(s_shifted.data)

        finite = (s_value(eps) - s_value(-eps)) / (2.0 * eps)
    except Exception as exc:  # a crash in forward/backward is a failure
        return OpReport(name=spec.name, ok=False, analytic=float("nan"),
                        finite_diff=float("nan"), error=float("inf"),
                        detail=f"{type(exc).__name__}: {exc}")

    scale = max(1.0, abs(analytic), abs(finite))
    error = abs(analytic - finite)
    ok = error <= tolerance * scale
    detail = "" if ok else (
        "second-order mismatch: the op's backward is not composed of "
        "differentiable Tensor ops (grad-of-grad is wrong or severed)")
    return OpReport(name=spec.name, ok=ok, analytic=analytic,
                    finite_diff=finite, error=error, detail=detail)


def check_double_backprop(names: Optional[Sequence[str]] = None
                          ) -> List[OpReport]:
    """Run :func:`check_op` for every registered (or named) op."""
    _build_default_specs()
    chosen = sorted(names) if names is not None else registered_op_names()
    return [check_op(_REGISTRY[name]) for name in chosen]


# ----------------------------------------------------------------------
# Default registry: the differentiable surface of repro.nn.

def _mixed(rng: np.random.Generator, shape) -> np.ndarray:
    """Values in ±[0.4, 1.6]: away from every kink (0) and pole."""
    magnitude = rng.uniform(0.4, 1.6, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return magnitude * sign


def _positive(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(0.4, 1.6, size=shape)


def _build_default_specs() -> None:
    if _REGISTRY:
        return

    from ..nn import concatenate, maximum, minimum, stack, where
    from ..nn.functional import (
        binary_cross_entropy_with_logits,
        cross_entropy,
        gumbel_softmax,
        l2_norm,
        log_softmax,
        mse_loss,
        softmax,
    )

    def rng():
        return np.random.default_rng(7)

    def unary(name, fn, sampler=_mixed, shape=(2, 3)):
        register_op(OpSpec(
            name=name,
            make_inputs=lambda: [sampler(rng(), shape)],
            apply=lambda xs: fn(xs[0]),
        ))

    def binary(name, fn, sampler=_mixed, shapes=((2, 3), (2, 3))):
        def make_inputs(sampler=sampler, shapes=shapes):
            # One generator for all inputs: drawing each from a fresh
            # seed would make them identical, putting maximum/minimum
            # exactly on their tie boundary.
            g = rng()
            return [sampler(g, s) for s in shapes]
        register_op(OpSpec(
            name=name, make_inputs=make_inputs,
            apply=lambda xs: fn(xs[0], xs[1]),
        ))

    # arithmetic
    binary("add", lambda a, b: a + b)
    binary("sub", lambda a, b: a - b)
    unary("neg", lambda x: -x)
    binary("mul", lambda a, b: a * b)
    binary("div", lambda a, b: a / b, sampler=_positive)
    unary("pow", lambda x: x ** 3.0, sampler=_positive)
    binary("matmul", lambda a, b: a @ b, shapes=((2, 3), (3, 4)))
    # Stacked matmul with a broadcast stack axis: the DP critic's
    # per-example rows (b, 1, F) against per-example weights (b, F, H),
    # and a shared (F, H) matrix whose gradient sums over the stack.
    def batched_inputs():
        g = rng()
        return [_mixed(g, s) for s in ((3, 1, 4), (3, 4, 2), (2, 5))]
    register_op(OpSpec(
        name="matmul_batched", make_inputs=batched_inputs,
        apply=lambda xs: concatenate(
            [xs[0] @ xs[1], xs[0] @ xs[1] @ xs[2]], axis=-1),
    ))
    # elementwise
    unary("exp", lambda x: x.exp())
    unary("log", lambda x: x.log(), sampler=_positive)
    unary("sqrt", lambda x: x.sqrt(), sampler=_positive)
    unary("square", lambda x: x.square())
    unary("tanh", lambda x: x.tanh())
    unary("sigmoid", lambda x: x.sigmoid())
    unary("relu", lambda x: x.relu())
    unary("leaky_relu", lambda x: x.leaky_relu(0.2))
    unary("abs", lambda x: x.abs())
    unary("clip_values", lambda x: x.clip_values(-1.2, 1.2))
    # reductions
    unary("sum", lambda x: x.sum(axis=1))
    unary("mean", lambda x: x.mean(axis=0))
    unary("max", lambda x: x.max(axis=1))
    # shape
    unary("reshape", lambda x: x.reshape(3, 2))
    unary("broadcast_to", lambda x: x.broadcast_to((4, 2, 3)))
    unary("transpose", lambda x: x.T)
    unary("getitem_slice", lambda x: x[:, 1:])
    unary("getitem_fancy", lambda x: x[np.array([0, 1, 0])])
    # free functions
    binary("concatenate", lambda a, b: concatenate([a, b], axis=1))
    binary("stack", lambda a, b: stack([a, b], axis=0))
    binary("where", lambda a, b: where(
        np.array([[True, False, True], [False, True, False]]), a, b))
    binary("maximum", maximum)
    binary("minimum", minimum)
    # functional layer on top of the primitives
    unary("softmax", lambda x: softmax(x, axis=-1))
    unary("log_softmax", lambda x: log_softmax(x, axis=-1))
    unary("cross_entropy",
          lambda x: cross_entropy(x, np.array([0, 2])), shape=(2, 3))
    unary("bce_with_logits",
          lambda x: binary_cross_entropy_with_logits(
              x, np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])))
    binary("mse_loss", lambda a, b: mse_loss(a, b))
    unary("l2_norm", lambda x: l2_norm(x, axis=-1))
    unary("gumbel_softmax",
          lambda x: gumbel_softmax(
              x, temperature=0.7, rng=np.random.default_rng(11)))
