"""Neural network modules built on the autograd engine.

Provides the layer types used across the GAN stack and the classifier
substrate: dense layers, GRU recurrent cells, layer normalisation, and
simple containers.  Modules hold named :class:`~repro.nn.autograd.Tensor`
parameters and expose them via :meth:`Module.parameters`, which the
optimizers consume.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .autograd import Tensor, concatenate, no_grad
from .tape import (fresh_zeros as _fresh_zeros,
                   invalidate_tapes as _invalidate_tapes)

__all__ = [
    "Module",
    "Parameter",
    "Dense",
    "Sequential",
    "GRUCell",
    "GRU",
    "LayerNorm",
    "Embedding",
]


class Parameter(Tensor):
    """A tensor registered as trainable state of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class: tracks parameters and child modules by attribute."""

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> List[Parameter]:
        params = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield prefix + name, p
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].copy()
        # Reassigning p.data changes parameter storage identity; any
        # recorded tape captured the old arrays by reference.
        _invalidate_tapes()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:  # grads are functional; kept for API parity
        pass

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


_ACTIVATIONS = {
    "linear": lambda x: x,
    "relu": lambda x: x.relu(),
    "leaky_relu": lambda x: x.leaky_relu(0.2),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
}


class Dense(Module):
    """Fully connected layer ``y = act(x W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "linear",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.weight = Parameter(_glorot(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return self.forward_with(x, self.weight, self.bias)

    def forward_with(self, x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
        """The layer's function at explicit parameter tensors (e.g.
        per-example leaves stacked along a leading example axis)."""
        return _ACTIVATIONS[self.activation](x @ weight + bias)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gain = Parameter(np.ones(features))
        self.offset = Parameter(np.zeros(features))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = centered.square().mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gain + self.offset


class GRUCell(Module):
    """Gated recurrent unit cell (Cho et al. 2014 formulation).

    The three gate projections are fused into one ``(I+H, 3H)`` weight,
    so a step costs a single matmul instead of three.  The candidate
    gate still sees ``r * h`` (not ``h``): the fused product gives
    ``x@Wcx + h@Wch``, and adding ``((r - 1) * h) @ Wch`` corrects the
    hidden term to ``(r*h)@Wch`` — mathematically identical to the
    unfused Cho formulation.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        concat_size = input_size + hidden_size
        # Per-gate glorot draws (same fan and rng order as the unfused
        # layout), stacked column-wise as [update | reset | candidate].
        self.w_gates = Parameter(np.hstack([
            _glorot(rng, concat_size, hidden_size) for _ in range(3)
        ]))
        self.b_gates = Parameter(np.zeros(3 * hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        hidden = self.hidden_size
        xh = concatenate([x, h], axis=-1)
        pre = xh @ self.w_gates + self.b_gates
        z = pre[:, :hidden].sigmoid()
        r = pre[:, hidden:2 * hidden].sigmoid()
        w_ch = self.w_gates[self.input_size:, 2 * hidden:]
        candidate = (pre[:, 2 * hidden:] + ((r - 1.0) * h) @ w_ch).tanh()
        return (1.0 - z) * h + z * candidate

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(_fresh_zeros((batch_size, self.hidden_size)))


class GRU(Module):
    """Unidirectional GRU over a (batch, time, features) tensor."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, h0: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
        """Return (outputs stacked over time, final hidden state)."""
        from .autograd import stack

        batch, time_steps = x.shape[0], x.shape[1]
        h = h0 if h0 is not None else self.cell.initial_state(batch)
        outputs = []
        for t in range(time_steps):
            h = self.cell(x[:, t, :], h)
            outputs.append(h)
        return stack(outputs, axis=1), h


class LSTMCell(Module):
    """Long short-term memory cell (the original DoppelGANger's RNN;
    this repo's default GAN uses the cheaper GRU).

    The four gate projections are fused into one ``(I+H, 4H)`` weight,
    so a step costs a single matmul instead of four.  Unlike the GRU
    fusion no correction term is needed: every LSTM gate — candidate
    included — sees the same plain ``[x, h]`` concat, so the fused
    product column-sliced per gate is the unfused computation exactly.
    Gate order is [input | forget | output | candidate], matching the
    per-gate rng draw order of the original unfused layout.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        concat_size = input_size + hidden_size
        self.w_gates = Parameter(np.hstack([
            _glorot(rng, concat_size, hidden_size) for _ in range(4)
        ]))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0  # forget-gate bias 1
        self.b_gates = Parameter(bias)

    @property
    def b_f(self) -> Tensor:
        """Forget-gate bias slice (kept for checkpoint introspection)."""
        return self.b_gates[self.hidden_size:2 * self.hidden_size]

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]
                ) -> Tuple[Tensor, Tensor]:
        hidden = self.hidden_size
        h, c = state
        xh = concatenate([x, h], axis=-1)
        pre = xh @ self.w_gates + self.b_gates
        i = pre[:, :hidden].sigmoid()
        f = pre[:, hidden:2 * hidden].sigmoid()
        o = pre[:, 2 * hidden:3 * hidden].sigmoid()
        candidate = pre[:, 3 * hidden:].tanh()
        c_new = f * c + i * candidate
        h_new = o * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        shape = (batch_size, self.hidden_size)
        return Tensor(_fresh_zeros(shape)), Tensor(_fresh_zeros(shape))


class LSTM(Module):
    """Unidirectional LSTM over a (batch, time, features) tensor."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, state=None) -> Tuple[Tensor, Tensor]:
        from .autograd import stack

        batch, time_steps = x.shape[0], x.shape[1]
        h, c = state if state is not None else self.cell.initial_state(batch)
        outputs = []
        for t in range(time_steps):
            h, c = self.cell(x[:, t, :], (h, c))
            outputs.append(h)
        return stack(outputs, axis=1), h


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, 0.1, size=(num_embeddings, dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        return self.weight[ids]
