"""A small reverse-mode automatic differentiation engine on numpy arrays.

This module provides the :class:`Tensor` type and the functional
:func:`grad` API used by every neural network in this repository.  The
engine supports *double backprop* (gradients of gradients): each op's
vector-Jacobian product is itself expressed with ``Tensor`` operations,
so calling :func:`grad` with ``create_graph=True`` produces gradient
tensors that are themselves differentiable.  Double backprop is what
makes the WGAN-GP gradient penalty (a loss term containing the norm of
an input gradient) trainable — the same mechanism TensorFlow provided
for the original NetShare implementation.

Design notes
------------
* Tensors are immutable views over ``float64`` numpy arrays.  All
  arithmetic broadcasts like numpy; VJPs un-broadcast by summing over
  the broadcast axes.
* A global no-grad context (:func:`no_grad`) disables graph recording,
  which keeps plain inference and the inner cotangent arithmetic of a
  first-order :func:`grad` call cheap.
* Only the operations needed by the GAN/classifier stack are
  implemented; adding a new op means writing a forward and a VJP in
  terms of existing ops.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .tape import (RECORDER as _REC, fresh_full as _fresh_full,
                   fresh_zeros as _fresh_zeros, ka as _ka)

__all__ = [
    "Tensor",
    "tensor",
    "grad",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
]

ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]

_state = threading.local()


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording inside its body."""
    previous = is_grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(t: "Tensor", shape: Tuple[int, ...]) -> "Tensor":
    """Sum ``t`` down to ``shape`` (the inverse of numpy broadcasting)."""
    if t.shape == shape:
        return t
    # Sum away leading axes added by broadcasting.
    extra = t.ndim - len(shape)
    if extra > 0:
        t = t.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and t.shape[i] != 1)
    if axes:
        t = t.sum(axis=axes, keepdims=True)
    if t.shape != shape:
        t = t.reshape(shape)
    return t


class Tensor:
    """A numpy array plus the graph metadata needed for backprop."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")
    __array_priority__ = 100.0  # make numpy defer to our reflected ops

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _vjp: Optional[Callable[["Tensor"], Sequence[Optional["Tensor"]]]] = None,
    ):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjp = _vjp

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view; treat as read-only)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        vjp: Callable[["Tensor"], Sequence[Optional["Tensor"]]],
    ) -> "Tensor":
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
        return Tensor(data)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = _ka(np.add, self.data, other.data)

        def vjp(g: "Tensor"):
            return (
                _unbroadcast(g, self.shape),
                _unbroadcast(g, other.shape),
            )

        return Tensor._make(out_data, (self, other), vjp)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def vjp(g: "Tensor"):
            return (-g,)

        return Tensor._make(_ka(np.negative, self.data), (self,), vjp)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        # Direct np.subtract kernel (one op) instead of the old
        # ``self + (-other)`` pair.  IEEE defines a - b as a + (-b)
        # exactly, and -(sum) == sum of negations bitwise, so both the
        # forward values and the accumulated gradients are
        # bit-identical to the two-kernel form.
        other = _ensure_tensor(other)
        out_data = _ka(np.subtract, self.data, other.data)

        def vjp(g: "Tensor"):
            return (
                _unbroadcast(g, self.shape),
                -_unbroadcast(g, other.shape),
            )

        return Tensor._make(out_data, (self, other), vjp)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = _ka(np.multiply, self.data, other.data)

        def vjp(g: "Tensor"):
            return (
                _unbroadcast(g * other, self.shape),
                _unbroadcast(g * self, other.shape),
            )

        return Tensor._make(out_data, (self, other), vjp)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = _ka(np.divide, self.data, other.data)

        def vjp(g: "Tensor"):
            return (
                _unbroadcast(g / other, self.shape),
                _unbroadcast(-g * self / (other * other), other.shape),
            )

        return Tensor._make(out_data, (self, other), vjp)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        out_data = _ka(np.power, self.data, exponent)

        def vjp(g: "Tensor"):
            return (g * (self ** (exponent - 1)) * float(exponent),)

        return Tensor._make(out_data, (self,), vjp)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = _ka(np.matmul, self.data, other.data)

        def vjp(g: "Tensor"):
            # Stacked operands transpose their matrix axes only (``.T``
            # would reverse the stack axes too), and a broadcast stack
            # axis sums back down.  For 2-D operands this is exactly
            # ``(g @ other.T, self.T @ g)``.
            return (_unbroadcast(g @ _swap_last(other), self.shape),
                    _unbroadcast(_swap_last(self) @ g, other.shape))

        return Tensor._make(out_data, (self, other), vjp)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = _ka(np.exp, self.data)

        def vjp(g: "Tensor"):
            # Reference the *output* values via a detached constant so that
            # the second-order graph re-derives through self if needed.
            return (g * self.exp(),)

        return Tensor._make(out_data, (self,), vjp)

    def log(self) -> "Tensor":
        out_data = _ka(np.log, self.data)

        def vjp(g: "Tensor"):
            return (g / self,)

        return Tensor._make(out_data, (self,), vjp)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def square(self) -> "Tensor":
        return self * self

    def tanh(self) -> "Tensor":
        out_data = _ka(np.tanh, self.data)

        def vjp(g: "Tensor"):
            y = self.tanh()
            return (g * (1.0 - y * y),)

        return Tensor._make(out_data, (self,), vjp)

    def sigmoid(self) -> "Tensor":
        clipped = _ka(np.clip, self.data, -60.0, 60.0)
        out_data = _ka(np.divide, 1.0,
                       _ka(np.add, 1.0, _ka(np.exp, _ka(np.negative,
                                                        clipped))))

        def vjp(g: "Tensor"):
            y = self.sigmoid()
            return (g * y * (1.0 - y),)

        return Tensor._make(out_data, (self,), vjp)

    def relu(self) -> "Tensor":
        # bool * 1.0 promotes to the same 1.0/0.0 float64 mask as
        # .astype, and both forms are recordable ufunc kernels.
        mask = _ka(np.multiply, _ka(np.greater, self.data, 0.0), 1.0)
        out_data = _ka(np.multiply, self.data, mask)

        def vjp(g: "Tensor"):
            return (g * Tensor(mask),)

        return Tensor._make(out_data, (self,), vjp)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        factor = _ka(np.where, _ka(np.greater, self.data, 0.0),
                     1.0, negative_slope)
        out_data = _ka(np.multiply, self.data, factor)

        def vjp(g: "Tensor"):
            return (g * Tensor(factor),)

        return Tensor._make(out_data, (self,), vjp)

    def abs(self) -> "Tensor":
        sign = _ka(np.sign, self.data)
        out_data = _ka(np.abs, self.data)

        def vjp(g: "Tensor"):
            return (g * Tensor(sign),)

        return Tensor._make(out_data, (self,), vjp)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = _ka(np.sum, self.data, axis=axis, keepdims=keepdims)
        shape = self.shape

        def vjp(g: "Tensor"):
            g_data_shape = _reduction_grad_shape(shape, axis, keepdims)
            return (g.reshape(g_data_shape).broadcast_to(shape),)

        return Tensor._make(out_data, (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else _axis_count(self.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = _ka(np.max, self.data, axis=axis, keepdims=keepdims)
        expanded = _ka(np.max, self.data, axis=axis, keepdims=True)
        mask = _ka(np.multiply, _ka(np.equal, self.data, expanded), 1.0)
        mask = _ka(np.divide, mask,
                   _ka(np.sum, mask, axis=axis, keepdims=True))
        shape = self.shape

        def vjp(g: "Tensor"):
            g_shape = _reduction_grad_shape(shape, axis, keepdims)
            return (g.reshape(g_shape).broadcast_to(shape) * Tensor(mask),)

        return Tensor._make(out_data, (self,), vjp)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)
        if _REC.active and out_data.base is None:
            # A reshape of non-contiguous data copies instead of
            # viewing; record the copy so replay refreshes it.
            _REC.a(np.reshape, (self.data, shape), out_data)

        def vjp(g: "Tensor"):
            return (g.reshape(original),)

        return Tensor._make(out_data, (self,), vjp)

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        original = self.shape
        out_data = np.broadcast_to(self.data, shape).copy()
        if _REC.active:
            _REC._own(out_data)
            _REC.copy(out_data, self.data)

        def vjp(g: "Tensor"):
            return (_unbroadcast(g, original),)

        return Tensor._make(out_data, (self,), vjp)

    @property
    def T(self) -> "Tensor":
        axes = tuple(reversed(range(self.ndim)))
        return self.transpose(*axes)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def vjp(g: "Tensor"):
            return (g.transpose(inverse),)

        return Tensor._make(out_data, (self,), vjp)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if (_REC.active and isinstance(out_data, np.ndarray)
                and out_data.base is None):
            # Fancy indexing copies; replay re-gathers with the live
            # key contents (taped batch indices select fresh rows).
            _REC.gather(self.data, index, out_data)
        shape = self.shape

        def vjp(g: "Tensor"):
            if g.requires_grad:
                # Build a differentiable scatter for second-order use.
                return (_ScatterHelper(shape, index)(g),)
            scatter = _fresh_zeros(shape)
            np.add.at(scatter, index, g.data)
            if _REC.active:
                _REC.inplace(np.add.at, (scatter, index, g.data))
            return (Tensor(scatter),)

        return Tensor._make(out_data, (self,), vjp)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def clip_values(self, low: float, high: float) -> "Tensor":
        """Differentiable clip (gradient passes only inside the window)."""
        inside = _ka(np.logical_and,
                     _ka(np.greater_equal, self.data, low),
                     _ka(np.less_equal, self.data, high))
        mask = _ka(np.multiply, inside, 1.0)
        out_data = _ka(np.clip, self.data, low, high)

        def vjp(g: "Tensor"):
            return (g * Tensor(mask),)

        return Tensor._make(out_data, (self,), vjp)


class _ScatterHelper:
    """Differentiable scatter-add used by ``__getitem__``'s VJP."""

    def __init__(self, shape: Tuple[int, ...], index):
        self.shape = shape
        self.index = index

    def __call__(self, g: Tensor) -> Tensor:
        scatter = _fresh_zeros(self.shape)
        np.add.at(scatter, self.index, g.data)
        if _REC.active:
            _REC.inplace(np.add.at, (scatter, self.index, g.data))
        index = self.index

        def vjp(ct: Tensor):
            return (ct[index],)

        return Tensor._make(scatter, (g,), vjp)


def _swap_last(t: Tensor) -> Tensor:
    """Transpose the last two axes (the matrix axes of a stacked
    matmul operand); a 1-D operand is returned as is, like ``.T``."""
    if t.ndim < 2:
        return t
    lead = tuple(range(t.ndim - 2))
    return t.transpose(lead + (t.ndim - 1, t.ndim - 2))


def _ensure_tensor(value: ArrayLike) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a tensor (the public constructor)."""
    return Tensor(data, requires_grad=requires_grad)


def _axis_count(shape: Tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        axis = (axis,)
    count = 1
    for a in axis:
        count *= shape[a]
    return count


def _reduction_grad_shape(shape: Tuple[int, ...], axis, keepdims: bool):
    """Shape a reduction's cotangent must be reshaped to before broadcast."""
    if axis is None:
        return (1,) * len(shape)
    if keepdims:
        return None_safe_shape(shape, axis, keep=True)
    return None_safe_shape(shape, axis, keep=True)


def None_safe_shape(shape: Tuple[int, ...], axis, keep: bool):
    if isinstance(axis, int):
        axis = (axis,)
    axis = tuple(a % len(shape) for a in axis)
    return tuple(1 if i in axis else n for i, n in enumerate(shape))


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_ensure_tensor(t) for t in tensors]
    out_data = _ka(np.concatenate, [t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: Tensor):
        grads = []
        for i in range(len(tensors)):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._make(out_data, tuple(tensors), vjp)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_ensure_tensor(t) for t in tensors]
    out_data = _ka(np.stack, [t.data for t in tensors], axis=axis)

    def vjp(g: Tensor):
        grads = []
        for i in range(len(tensors)):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = i
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._make(out_data, tuple(tensors), vjp)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select elementwise; the condition is a constant boolean array."""
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    cond = np.asarray(condition)
    if cond.dtype != np.bool_:
        # ``x != 0`` matches the bool cast bitwise (NaN != 0 is True,
        # like bool(NaN)) and is a recordable ufunc kernel.
        cond = _ka(np.not_equal, cond, 0)
    out_data = _ka(np.where, cond, a.data, b.data)
    mask = Tensor(_ka(np.multiply, cond, 1.0))

    def vjp(g: Tensor):
        return (
            _unbroadcast(g * mask, a.shape),
            _unbroadcast(g * (1.0 - mask), b.shape),
        )

    return Tensor._make(out_data, (a, b), vjp)


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    return where(_ka(np.greater_equal, a.data, b.data), a, b)


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    return where(_ka(np.less_equal, a.data, b.data), a, b)


# ----------------------------------------------------------------------
# functional gradient API
# ----------------------------------------------------------------------
def _topo_order(root: Tensor) -> List[Tensor]:
    order: List[Tensor] = []
    seen = set()
    stack_: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack_.append((parent, False))
    return order


def grad(
    output: Tensor,
    inputs: Iterable[Tensor],
    create_graph: bool = False,
    allow_unused: bool = True,
) -> List[Tensor]:
    """Compute d(output)/d(input) for each input.

    ``output`` must be a scalar tensor.  When ``create_graph`` is true the
    returned gradients carry their own graphs, enabling second-order terms
    such as the WGAN-GP gradient penalty.
    """
    inputs = list(inputs)
    if output.size != 1:
        raise ValueError("grad() requires a scalar output; call .sum() or .mean() first")
    if not output.requires_grad:
        if allow_unused:
            return [Tensor(_fresh_zeros(t.shape)) for t in inputs]
        raise ValueError("output does not require grad")

    order = _topo_order(output)
    cotangents = {id(output): Tensor(_fresh_full(output.shape, 1.0))}
    input_ids = {id(t) for t in inputs}
    captured = {}

    context = contextlib.nullcontext() if create_graph else no_grad()
    with context:
        for node in reversed(order):
            ct = cotangents.pop(id(node), None)
            if ct is None:
                continue
            # Capture cotangents for requested inputs (which may be leaves
            # or mid-graph nodes, e.g. interpolated samples in the GP term).
            # Topological order guarantees ct is fully accumulated here.
            if id(node) in input_ids:
                captured[id(node)] = ct
            if node._vjp is None:
                continue
            parent_grads = node._vjp(ct)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                existing = cotangents.get(id(parent))
                cotangents[id(parent)] = pg if existing is None else existing + pg

        results = []
        for t in inputs:
            g = captured.get(id(t))
            if g is None:
                if not allow_unused:
                    raise ValueError("an input was not reached by backprop")
                g = Tensor(_fresh_zeros(t.shape))
            results.append(g)
    return results
