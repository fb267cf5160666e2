"""The one mutable cell every instrumented hot path reads.

Hot paths (the executor dispatch loop, trace spans, GAN epoch loops)
guard their instrumentation with a single attribute test on
:data:`STATE` — ``if STATE.enabled:`` — so the disabled path costs one
load and one branch, which is the "zero overhead when off" contract
the runtime-perf bench measures.  That flag is the only switch:
nothing else, and no environment variable, changes what telemetry
records.

``STATE`` is process-local.  Forked workers inherit the parent's state
object but are switched into *worker mode* by the executor
(:func:`repro.telemetry.begin_worker_task`): recording on, journal
off — workers buffer spans and metrics and ship them back with the
task result instead of writing files.
"""

from __future__ import annotations

from typing import Optional

from .metrics import NULL_REGISTRY, MetricsRegistry

__all__ = ["TelemetryState", "STATE"]


class TelemetryState:
    """Process-local telemetry switchboard (see module docstring)."""

    __slots__ = ("enabled", "registry", "journal", "run_id", "worker_mode")

    def __init__(self):
        self.enabled: bool = False
        self.registry: MetricsRegistry = NULL_REGISTRY
        self.journal = None          # Optional[RunJournal]
        self.run_id: Optional[str] = None
        self.worker_mode: bool = False

    def reset(self) -> None:
        self.enabled = False
        self.registry = NULL_REGISTRY
        self.journal = None
        self.run_id = None
        self.worker_mode = False


#: The process-wide telemetry state.
STATE = TelemetryState()
