"""Nesting trace spans that survive process boundaries.

A :func:`span` is a context manager timing one unit of work: a live
:class:`Span` while telemetry is on, and one shared no-op context
while it is off (no generator or span object per call).  Spans nest through a
process-local stack; each span snapshots the ambient
``(run_id, task_id, worker_pid)`` context so a span recorded inside a
pool worker is attributable after it has been shipped back to the
orchestrator.

Cross-process protocol: workers record spans exactly like the serial
path, but completed *root* spans accumulate in a pending buffer
instead of a journal (workers never write files).  The executor drains
that buffer (:func:`export_pending`) into the task-result envelope,
and the parent splices the serialized spans into its own live tree
(:func:`attach_children`) under the ``map_tasks`` span — producing one
tree whatever backend ran the work.

In the orchestrator, a completed root span is written to the active
run journal as a ``span`` event (the report CLI reads these); with no
journal it is kept in the pending buffer (bounded) for inspection.

Durations come from ``time.perf_counter`` and are process-relative:
only durations, names, attrs, and the tree shape are meaningful across
processes — never absolute start times.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional

from .state import STATE

__all__ = [
    "Span",
    "span",
    "set_task",
    "current_task",
    "export_pending",
    "attach_children",
    "reset",
]

#: Open spans, innermost last (the runtime is single-threaded per
#: process, so a module-level stack is the whole story).
_STACK: List["Span"] = []
#: Completed root spans awaiting drain (worker export / inspection).
_PENDING: List[Dict[str, Any]] = []
_PENDING_LIMIT = 256
#: Ambient task id (set by the executor around each task execution).
_TASK_ID: Optional[int] = None


class Span:
    """One timed unit of work, and the context manager that times it;
    children are sub-spans (live ``Span`` objects in-process, plain
    dicts when spliced from a worker)."""

    __slots__ = ("name", "attrs", "duration", "task_id", "worker_pid",
                 "children", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.duration: float = 0.0
        self.task_id = _TASK_ID
        self.worker_pid = os.getpid()
        self.children: List[Any] = []
        self._start = 0.0

    def __enter__(self) -> "Span":
        _STACK.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        _STACK.pop()
        if _STACK:
            _STACK[-1].children.append(self)
        else:
            _complete_root(self)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_s": round(self.duration, 6),
            "worker_pid": self.worker_pid,
        }
        if self.run_id is not None:
            out["run_id"] = self.run_id
        if self.task_id is not None:
            out["task_id"] = self.task_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [
                c.to_dict() if isinstance(c, Span) else c
                for c in self.children
            ]
        return out

    @property
    def run_id(self) -> Optional[str]:
        return STATE.run_id


def set_task(task_id: Optional[int]) -> None:
    """Set (or clear, with None) the ambient task id new spans carry."""
    global _TASK_ID
    _TASK_ID = task_id


def current_task() -> Optional[int]:
    return _TASK_ID


class _NoSpan:
    """The disabled span: enters as None and records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NO_SPAN = _NoSpan()


def span(name: str, **attrs: Any):
    """Time a block as a span: ``with span(name, **attrs) as live:``
    binds the live :class:`Span`, or None while telemetry is off (the
    fast path returns one shared no-op context)."""
    if not STATE.enabled:
        return _NO_SPAN
    return Span(name, attrs)


def _complete_root(record: Span) -> None:
    journal = STATE.journal
    if journal is not None:
        journal.event("span", span=record.to_dict())
        return
    _PENDING.append(record.to_dict())
    if len(_PENDING) > _PENDING_LIMIT:
        del _PENDING[: len(_PENDING) - _PENDING_LIMIT]


def export_pending() -> List[Dict[str, Any]]:
    """Drain and return the completed root spans (worker wire format)."""
    out = list(_PENDING)
    _PENDING.clear()
    return out


def attach_children(serialized: List[Dict[str, Any]]) -> None:
    """Splice worker span dicts into the live tree: as children of the
    innermost open span, or into the pending buffer when no span is
    open (spliced roots are already complete — journaling them again
    would double-count, so they are buffered, not re-emitted)."""
    if not serialized:
        return
    if _STACK:
        _STACK[-1].children.extend(serialized)
    else:
        _PENDING.extend(serialized)
        if len(_PENDING) > _PENDING_LIMIT:
            del _PENDING[: len(_PENDING) - _PENDING_LIMIT]


def reset() -> None:
    """Drop all span state (session teardown / worker-task setup)."""
    _STACK.clear()
    _PENDING.clear()
    set_task(None)
