"""DP-SGD gradient privatisation (Abadi et al. 2016).

NetShare's strawman DP training runs DP-SGD end-to-end; its Insight 4
runs DP-SGD only during fine-tuning from a public pretrained model.
Either way the per-step mechanism is the same: clip each *per-example*
gradient to L2 norm C, sum, add N(0, (C*sigma)^2) noise, and average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..nn.autograd import Tensor, grad
from ..nn.layers import Parameter
from ..nn.optim import clip_global_norm
from ..nn.tape import RECORDER as _REC, fresh_zeros, ka as _ka, taped_draw
from ..telemetry import emit_event
from ..telemetry.state import STATE as _TELEMETRY
from .accountant import RdpAccountant

__all__ = ["DpSgdConfig", "privatize_gradients", "stack_examples",
           "DpGradientComputer"]


@dataclass
class DpSgdConfig:
    """DP-SGD hyperparameters."""

    clip_norm: float = 1.0
    noise_multiplier: float = 1.0
    delta: float = 1e-5

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise ValueError("clip norm must be positive")
        if self.noise_multiplier < 0:
            raise ValueError("noise multiplier must be non-negative")


def stack_examples(
    per_example_grads: Sequence[Sequence[np.ndarray]],
) -> List[np.ndarray]:
    """Turn a per-example list (``per_example_grads[i][p]`` is example
    i's gradient for parameter p) into the stacked blocks
    :func:`privatize_gradients` takes: one array per parameter with the
    examples along a new leading axis."""
    if not per_example_grads:
        raise ValueError("need at least one example")
    return [
        _ka(np.stack,
            [np.asarray(example[p]) for example in per_example_grads])
        for p in range(len(per_example_grads[0]))
    ]


def privatize_gradients(
    per_example_grads: Sequence[np.ndarray],
    config: DpSgdConfig,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Clip each example's gradient, sum, add noise, average.

    ``per_example_grads[p]`` stacks every example's gradient for
    parameter p along a leading example axis, shape
    ``(n,) + param.shape`` — what one backward pass over per-example
    parameter leaves returns (see ``DoppelGANger``'s DP critic step);
    :func:`stack_examples` builds it from a per-example list.

    Vectorized over the batch: the per-example norms, clip factors, and
    totals come from whole-batch numpy kernels instead of a Python loop
    per example.  Every reduction runs in the same element order as the
    per-example loop (see :func:`_privatize_gradients_loop`), so the
    output is bit-identical to the reference implementation.  All
    kernels and the noise draw go through the tape shims so a recorded
    DP step replays exactly (the noise is re-drawn from the live
    generator in stream order).
    """
    blocks = [np.asarray(block) for block in per_example_grads]
    if not blocks or len(blocks[0]) == 0:
        raise ValueError("need at least one example")
    n = len(blocks[0])
    if any(len(block) != n for block in blocks):
        raise ValueError("every gradient block needs the same number "
                         "of examples")
    # Per-example global L2 norms, accumulated across parameters in the
    # same order clip_global_norm sums them.
    sq_norms = fresh_zeros(n)
    for block in blocks:
        sq = _ka(np.multiply, block, block)
        part = _ka(np.sum, sq.reshape(n, -1), axis=1)
        np.add(sq_norms, part, out=sq_norms)
        if _REC.active:
            _REC.k(np.add, (sq_norms, part), sq_norms)
    norms = _ka(np.sqrt, sq_norms)
    # Branchless clip factor: clip / max(norm, clip).  Bit-identical to
    # the masked form — norms above the clip divide exactly the same,
    # and clip / clip == 1.0 exactly otherwise.
    factors = _ka(np.divide, config.clip_norm,
                  _ka(np.maximum, norms, config.clip_norm))
    scale = config.noise_multiplier * config.clip_norm
    noisy = []
    for block in blocks:
        shaped = factors.reshape((n,) + (1,) * (block.ndim - 1))
        prod = _ka(np.multiply, block, shaped)
        total = _ka(np.add.reduce, prod, axis=0)
        noise = taped_draw(
            lambda shape=total.shape: rng.normal(0.0, scale, size=shape))
        noisy.append(_ka(np.divide, _ka(np.add, total, noise), n))
    return noisy


def _privatize_gradients_loop(
    per_example_grads: Sequence[Sequence[np.ndarray]],
    config: DpSgdConfig,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Reference per-example implementation of
    :func:`privatize_gradients`; kept as the regression-test oracle for
    the vectorized kernel."""
    if not per_example_grads:
        raise ValueError("need at least one example")
    n = len(per_example_grads)
    totals = [np.zeros_like(g) for g in per_example_grads[0]]
    for example in per_example_grads:
        clipped = clip_global_norm(list(example), config.clip_norm)
        for total, g in zip(totals, clipped):
            total += g
    scale = config.noise_multiplier * config.clip_norm
    noisy = [
        (total + rng.normal(0.0, scale, size=total.shape)) / n
        for total in totals
    ]
    return noisy


class DpGradientComputer:
    """Computes privatized gradients for a per-example loss function.

    ``loss_fn(index)`` must return the scalar loss Tensor of training
    example ``index``.  Microbatching (looping over examples) is the
    per-example-gradient strategy — slow but exact, and fine at the
    scale this repo trains at.  The accountant tracks cumulative
    (epsilon, delta) as steps are taken.
    """

    def __init__(self, params: Sequence[Parameter], config: DpSgdConfig,
                 dataset_size: int, seed: int = 0):
        if dataset_size < 1:
            raise ValueError("dataset size must be positive")
        self.params = list(params)
        self.config = config
        self.dataset_size = dataset_size
        self.rng = np.random.default_rng(seed)
        self.accountant = RdpAccountant()
        self.steps_taken = 0

    def step_gradients(
        self, loss_fn: Callable[[int], Tensor], batch_indices: Sequence[int]
    ) -> List[np.ndarray]:
        """Return noisy averaged gradients for one DP-SGD step."""
        batch_indices = list(batch_indices)
        if not batch_indices:
            raise ValueError("batch must be non-empty")
        per_example = []
        for index in batch_indices:
            loss = loss_fn(index)
            grads = grad(loss, self.params)
            per_example.append([g.data for g in grads])
        noisy = privatize_gradients(stack_examples(per_example),
                                    self.config, self.rng)
        if self.config.noise_multiplier > 0:
            self.accountant.step(
                self.config.noise_multiplier,
                sampling_rate=len(batch_indices) / self.dataset_size,
            )
        self.steps_taken += 1
        if _TELEMETRY.enabled:
            # Per-step ε ledger: cumulative privacy spend after this
            # step (get_epsilon over the running RDP curve is cheap
            # relative to the per-example gradient loop above).
            _TELEMETRY.registry.counter("dp.steps").inc()
            emit_event("dp_step", step=self.steps_taken,
                       batch=len(batch_indices),
                       epsilon=self.spent_epsilon())
        return noisy

    def spent_epsilon(self) -> float:
        """(epsilon, delta)-DP spent so far."""
        if self.steps_taken == 0 or self.config.noise_multiplier == 0:
            return float("inf") if self.config.noise_multiplier == 0 else 0.0
        return self.accountant.get_epsilon(self.config.delta)
