"""JSONL run journal: the durable half of the telemetry subsystem.

A :class:`RunJournal` owns one per-run directory under a caller-chosen
base (``<base>/<run_id>/``) holding ``meta.json`` (run identity) and
``events.jsonl`` — one JSON object per line, streamed and flushed as
events happen so a crashed run still leaves an inspectable journal.

Every event carries ``ts`` (wall-clock seconds), ``event`` (the type
tag), and ``run_id``; typed payloads ride alongside.  The event
vocabulary is documented in DESIGN.md §9; ``python -m repro.telemetry
report <journal>`` renders a run summary from it.

Determinism carve-out: this module is the **only** place the codebase
reads the wall clock (``time.time``) — timestamps annotate the record
of a run and never feed a seed or a branch, so each use is suppressed
with ``# repro: ignore[determinism]`` (see DESIGN.md §9).  Everything
that must stay reproducible — model output, span durations — is
untouched by these values.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["RunJournal", "load_journal", "load_journals",
           "EVENTS_FILENAME", "META_FILENAME"]

EVENTS_FILENAME = "events.jsonl"
META_FILENAME = "meta.json"


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars (and anything else foreign) to JSON."""
    for caster in (float, int):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return str(value)


#: Per-process session counter: two sessions that one process opens
#: within the same second still get distinct run ids (zero-padded, so
#: the ids keep sorting chronologically).
_RUN_SEQUENCE = itertools.count(1)


def _new_run_id() -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-p{os.getpid()}-{next(_RUN_SEQUENCE):04d}"


class RunJournal:
    """Streams typed events for one run to ``<base>/<run_id>/``."""

    def __init__(self, base_dir, run_id: Optional[str] = None,
                 label: Optional[str] = None):
        self.run_id = run_id or _new_run_id()
        self.directory = Path(base_dir) / self.run_id
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / EVENTS_FILENAME
        self._fh = open(self.path, "a", encoding="utf-8")
        self.events_written = 0
        meta = {
            "run_id": self.run_id,
            "label": label,
            "pid": os.getpid(),
            "created": time.time(),  # repro: ignore[determinism]
        }
        (self.directory / META_FILENAME).write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8")

    # ------------------------------------------------------------------
    def event(self, event_type: str, **fields: Any) -> None:
        """Append one event line (best-effort: a journal must never
        take down the run it is observing, including at interpreter
        teardown when the file may already be closed)."""
        record: Dict[str, Any] = {
            "ts": round(time.time(), 6),  # repro: ignore[determinism]
            "event": event_type,
            "run_id": self.run_id,
        }
        record.update(fields)
        try:
            self._fh.write(
                json.dumps(record, default=_json_default) + "\n")
            self._fh.flush()
            self.events_written += 1
        except ValueError:
            pass  # file closed (interpreter teardown)

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _resolve_events_path(path) -> Path:
    """Accept an events file, a run directory, or a journal base
    directory (pick the newest run by id — ids sort chronologically)."""
    path = Path(path)
    if path.is_file():
        return path
    if (path / EVENTS_FILENAME).is_file():
        return path / EVENTS_FILENAME
    runs = sorted(
        child for child in path.iterdir()
        if (child / EVENTS_FILENAME).is_file()
    ) if path.is_dir() else []
    if not runs:
        raise FileNotFoundError(
            f"no journal found at {path}: expected {EVENTS_FILENAME}, a run "
            "directory containing it, or a base directory of run directories")
    return runs[-1] / EVENTS_FILENAME


def load_journal(path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Return ``(meta, events)`` for a journal path (file or directory).

    Truncated trailing lines (a run killed mid-write) are dropped
    rather than failing the whole load.
    """
    events_path = _resolve_events_path(path)
    meta_path = events_path.parent / META_FILENAME
    meta: Dict[str, Any] = {}
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    events: List[Dict[str, Any]] = []
    with open(events_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn final line from a killed run
    return meta, events


def load_journals(paths) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load and merge one or more journal shards into a single
    ``(meta, events)`` view.

    A distributed run leaves several journals — the coordinator's plus
    one shard per remote worker host (``remote_worker --journal``).
    Each path resolves exactly like :func:`load_journal` (events file,
    run directory, or base directory → newest run); the merged event
    stream is ordered by wall-clock ``ts`` (a stable sort, so each
    shard's internal order survives ties), and every event already
    carries its own ``run_id``, so provenance is never lost in the
    merge.  A single path degenerates to :func:`load_journal`.

    The merged meta keeps the first shard's fields and adds ``shards``
    (each shard's meta) plus a combined ``run_id`` so report renderings
    show every contributing run.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("load_journals needs at least one journal path")
    if len(paths) == 1:
        return load_journal(paths[0])
    metas: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    for path in paths:
        meta, shard_events = load_journal(path)
        metas.append(meta)
        events.extend(shard_events)
    events.sort(key=lambda event: event.get("ts", 0.0))
    run_ids = []
    for meta in metas:
        run_id = meta.get("run_id")
        if run_id is not None and run_id not in run_ids:
            run_ids.append(run_id)
    merged: Dict[str, Any] = dict(metas[0])
    merged["run_id"] = "+".join(str(r) for r in run_ids) or None
    merged["shards"] = metas
    return merged, events
