"""Minimal neural network substrate (numpy autograd with double backprop).

The original NetShare was built on TensorFlow 1.15; this package provides
the equivalent primitives needed by the GAN stack and classifier suite:
tensors with reverse-mode autodiff (including gradients-of-gradients for
the WGAN-GP penalty), dense/GRU layers, losses, and Adam/SGD optimizers.

:func:`bucket_size` is part of the public API on purpose: it defines
the warm-tape batch grid that compiled inference records on (next
power of two up to 256, then multiples of 256; bucket values are fixed
points).  Every layer that sizes a sampling batch —
``NetShare.generate`` task sizing, the samplers' own padding, and the
``repro.serve`` request coalescer — must round through this one
function, so similar request sizes provably collapse onto the same
recorded tape.
"""

from .autograd import (
    Tensor,
    concatenate,
    grad,
    is_grad_enabled,
    maximum,
    minimum,
    no_grad,
    stack,
    tensor,
    where,
)
from .contracts import (
    KernelContract,
    contract_for,
    declare_kernel,
    kernel_name,
)
from .functional import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    gumbel_softmax,
    l2_norm,
    log_softmax,
    mse_loss,
    softmax,
)
from .layers import (
    GRU,
    LSTM,
    Dense,
    Embedding,
    GRUCell,
    LayerNorm,
    LSTMCell,
    Module,
    Parameter,
    Sequential,
)
from .optim import SGD, Adam, Optimizer, clip_global_norm
from .sanitize import (
    SANITIZE_ENV_VAR,
    configure_sanitize,
    sanitize_enabled,
)
from .tape import (
    CompiledInfer,
    CompiledStep,
    LiveRng,
    TAPE_ENV_VAR,
    TapeSanitizerError,
    bucket_size,
    compiled_infer,
    compiled_step,
    configure_verify,
    invalidate_tapes,
    tape_enabled,
    tape_stats,
    verify_enabled,
)

__all__ = [
    "Tensor", "tensor", "grad", "no_grad", "is_grad_enabled",
    "concatenate", "stack", "where", "maximum", "minimum",
    "softmax", "log_softmax", "cross_entropy",
    "binary_cross_entropy_with_logits", "mse_loss", "gumbel_softmax",
    "l2_norm",
    "Module", "Parameter", "Dense", "Sequential", "GRUCell", "GRU",
    "LSTMCell", "LSTM",
    "LayerNorm", "Embedding",
    "Optimizer", "SGD", "Adam", "clip_global_norm",
    "SANITIZE_ENV_VAR", "sanitize_enabled", "configure_sanitize",
    "KernelContract", "declare_kernel", "contract_for", "kernel_name",
    "CompiledStep", "compiled_step", "TAPE_ENV_VAR", "tape_enabled",
    "tape_stats", "invalidate_tapes",
    "verify_enabled", "configure_verify",
    "TapeSanitizerError",
    "CompiledInfer", "compiled_infer", "LiveRng", "bucket_size",
]
