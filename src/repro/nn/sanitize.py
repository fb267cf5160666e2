"""Memory sanitizer helpers for taped storage (the ASan analogue).

``REPRO_NN_SANITIZE=1`` makes tape replays poison every buffer whose
liveness interval has ended and trap write-after-release and
read-of-poison (see :mod:`repro.nn.tape`).  Off by default: this is a
debugging mode, not a production one.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

__all__ = ["SANITIZE_ENV_VAR", "sanitize_enabled", "configure_sanitize",
           "poison", "is_poisoned"]

#: Set to ``1`` to enable the memory sanitizer for this process.
SANITIZE_ENV_VAR = "REPRO_NN_SANITIZE"

_ON_VALUES = frozenset({"1", "true", "on", "yes"})

_sanitize_forced: Optional[bool] = None


def sanitize_enabled() -> bool:
    """True when sanitizer mode is active for this process."""
    if _sanitize_forced is not None:
        return _sanitize_forced
    return os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() in _ON_VALUES


def configure_sanitize(enabled: Optional[bool]) -> None:
    """Force sanitizer mode on/off (``None`` restores the environment
    default).  Used by tests and the ``--check-tapes`` smoke recorder."""
    global _sanitize_forced
    _sanitize_forced = enabled if enabled is None else bool(enabled)


#: The poison payload: a quiet NaN whose mantissa spells out where it
#: came from.  Any stray arithmetic on released storage turns into NaNs
#: (visible in parity checks) even on paths the sanitizer's explicit
#: access checks do not instrument.
_POISON_BITS = np.uint64(0x7FF8DEADBEEFF00D)
_POISON_VALUE = float(np.frombuffer(_POISON_BITS.tobytes(),
                                    dtype=np.float64)[0])


def poison(buf: np.ndarray) -> None:
    """Fill a released float64 buffer with the poison NaN.  Non-float
    buffers (bool masks, int index arrays) cannot carry a NaN payload
    and are left alone — the sanitizer's state tracking still covers
    them."""
    if buf.dtype == np.float64:
        buf[...] = _POISON_VALUE


def is_poisoned(buf: np.ndarray) -> bool:
    """True when any element of ``buf`` carries the exact poison bit
    pattern (a plain NaN comparison would also match legitimate NaNs)."""
    if buf.dtype != np.float64 or buf.size == 0:
        return False
    bits = np.ascontiguousarray(buf).view(np.uint64)
    return bool((bits == _POISON_BITS).any())
