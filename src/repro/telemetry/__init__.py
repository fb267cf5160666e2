"""repro.telemetry: run journal, metrics, and cross-process trace spans.

A pure-stdlib observability layer threaded through the training and
generation runtime:

* **Metrics** — a process-local :class:`~repro.telemetry.metrics.
  MetricsRegistry` of counters/gauges/fixed-bucket histograms with
  no-op instruments while disabled;
* **Spans** — nesting :func:`span` trace contexts carrying
  ``(run_id, task_id, worker_pid)``.  The serial executor records
  in-process; the multiprocessing executor ships each worker's
  span buffer back inside the task-result envelope and splice the
  pieces into one tree (see :mod:`repro.telemetry.spans`);
* **Journal** — a JSONL :class:`~repro.telemetry.journal.RunJournal`
  streaming typed events (fit/chunk/epoch/generate rounds, DP ε
  ledger, worker retries, shm arena stage/unlink) to a per-run
  directory, rendered by ``python -m repro.telemetry report``.

Usage::

    from repro import telemetry

    with telemetry.session(journal_dir="runs"):
        model.fit(trace)            # events + spans stream to runs/<id>/
        model.generate(10_000)

Everything is off by default: the disabled fast path is a single
attribute test (``STATE.enabled``), and enabling telemetry never
touches an RNG, so model outputs are bit-identical with telemetry on
or off — the backend-parity tests are the oracle for that claim.
"""

from __future__ import annotations

import os
from contextlib import contextmanager as _contextmanager
from typing import Any, Dict, Optional

from . import spans as _spans
from .journal import RunJournal, load_journal, load_journals
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    metrics_snapshot,
)
from .spans import Span, span, set_task
from .state import STATE, TelemetryState

__all__ = [
    "STATE",
    "TelemetryState",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "RunJournal",
    "load_journal",
    "load_journals",
    "Span",
    "span",
    "set_task",
    "configure",
    "shutdown",
    "session",
    "enabled",
    "metrics",
    "metrics_snapshot",
    "emit_event",
    "begin_worker_task",
    "export_worker_payload",
    "absorb_worker_payload",
    "NN_TIMING_ENV_VAR",
    "SAMPLE_ENV_VAR",
]

#: Set (non-empty) to enable per-layer forward / optimizer step timing
#: whenever telemetry itself is enabled.  Off by default: layer-level
#: timing multiplies instrument calls by the step count.
NN_TIMING_ENV_VAR = "REPRO_TELEMETRY_NN"

#: ``REPRO_TELEMETRY_SAMPLE=<n>`` keeps every n-th per-epoch span and
#: ``epoch`` journal event (per span name / per model), bounding long
#: runs' journal size.  Root spans and structural events (fit/chunk/
#: generate start and end) are always kept.
SAMPLE_ENV_VAR = "REPRO_TELEMETRY_SAMPLE"

#: Event types eligible for sampling; everything else always lands.
_SAMPLED_EVENTS = frozenset({"epoch"})
#: Per-``(event_type, model)`` occurrence counters.
_EVENT_COUNTS: Dict[str, int] = {}


def configure(journal_dir=None, run_id: Optional[str] = None,
              label: Optional[str] = None,
              nn_timing: Optional[bool] = None,
              sample: Optional[int] = None) -> Optional[RunJournal]:
    """Enable telemetry for this process (idempotent; reconfigures).

    With ``journal_dir``, events stream to ``<journal_dir>/<run_id>/``
    and the journal is returned.  ``nn_timing`` defaults to the
    ``REPRO_TELEMETRY_NN`` environment variable; ``sample`` (keep every
    n-th per-epoch span/event) to ``REPRO_TELEMETRY_SAMPLE``.
    """
    shutdown()
    STATE.enabled = True
    STATE.registry = MetricsRegistry()
    if nn_timing is None:
        nn_timing = bool(os.environ.get(NN_TIMING_ENV_VAR, "").strip())
    STATE.nn_timing = bool(nn_timing)
    if sample is None:
        raw = os.environ.get(SAMPLE_ENV_VAR, "").strip()
        sample = int(raw) if raw else 1
    STATE.sample_n = max(1, int(sample))
    if journal_dir is not None:
        STATE.journal = RunJournal(journal_dir, run_id=run_id, label=label)
        STATE.run_id = STATE.journal.run_id
        STATE.journal.event("run_start", label=label)
    return STATE.journal


def shutdown() -> None:
    """Flush and disable telemetry (idempotent).

    The final metrics snapshot is journaled as a ``metrics`` event so
    the report CLI can render counter totals and histogram percentiles
    for the whole run.
    """
    journal = STATE.journal
    if journal is not None:
        journal.event("metrics", **STATE.registry.snapshot())
        journal.event("run_end", events=journal.events_written + 1)
        journal.close()
    _spans.reset()
    _EVENT_COUNTS.clear()
    STATE.reset()


@_contextmanager
def session(journal_dir=None, run_id: Optional[str] = None,
            label: Optional[str] = None, nn_timing: Optional[bool] = None,
            sample: Optional[int] = None):
    """``with telemetry.session(journal_dir=...):`` — configure on
    entry, flush and disable on exit (even on error)."""
    journal = configure(journal_dir=journal_dir, run_id=run_id,
                        label=label, nn_timing=nn_timing, sample=sample)
    try:
        yield journal
    finally:
        shutdown()


def enabled() -> bool:
    """True while telemetry is collecting in this process."""
    return STATE.enabled


def metrics() -> MetricsRegistry:
    """The active registry (the shared no-op registry when disabled)."""
    return STATE.registry


def emit_event(event_type: str, **fields: Any) -> None:
    """Write a typed event to the active journal, if any.

    Workers have no journal (they buffer spans/metrics instead), so
    task-side calls are free no-ops — orchestrator-side calls are the
    ones that land in ``events.jsonl``.  High-frequency ``epoch``
    events honour ``STATE.sample_n`` (every n-th per model kept);
    structural events always land.
    """
    journal = STATE.journal
    if journal is None:
        return
    if STATE.sample_n > 1 and event_type in _SAMPLED_EVENTS:
        key = f"{event_type}:{fields.get('model', '')}"
        count = _EVENT_COUNTS.get(key, 0)
        _EVENT_COUNTS[key] = count + 1
        if count % STATE.sample_n:
            return
    journal.event(event_type, **fields)


# ----------------------------------------------------------------------
# Worker protocol: how spans and metrics cross the process boundary.

def begin_worker_task(task_id: Optional[int] = None) -> None:
    """Switch this (worker) process into buffered-recording mode for
    one task: recording on, journal off, fresh span/metric buffers.

    A forked worker inherits the parent's *live* telemetry state —
    registry contents, open spans, journal handle — so the first call
    in a worker drops all of it: the worker must export only its own
    delta, and only the orchestrator writes the journal."""
    if not STATE.worker_mode:
        STATE.registry = MetricsRegistry()
    STATE.enabled = True
    STATE.worker_mode = True
    STATE.journal = None
    _spans.reset()
    _spans.set_task(task_id)


def export_worker_payload() -> Dict[str, Any]:
    """Drain this worker's buffered spans and metrics into the
    task-result envelope; buffers are reset so the next task on this
    (persistent) worker exports only its own delta."""
    payload = {
        "pid": os.getpid(),
        "spans": _spans.export_pending(),
        "metrics": STATE.registry.snapshot(),
    }
    STATE.registry.reset()
    _spans.set_task(None)
    return payload


def absorb_worker_payload(payload: Optional[Dict[str, Any]]) -> None:
    """Splice a worker envelope into this process: spans attach under
    the innermost open span, metric deltas merge into the registry."""
    if not payload:
        return
    _spans.attach_children(payload.get("spans") or [])
    snapshot = payload.get("metrics")
    if snapshot:
        STATE.registry.merge(snapshot)
