"""Request batching and coalescing for the serve daemon.

The daemon's throughput lever is the same one the offline runtime
already built: one pooled ``map_tasks()`` fan-out amortizes dispatch,
worker caches, and warm inference tapes across many units of work.
The coalescer turns *concurrent small requests* into exactly that
shape:

* handler threads :meth:`~AdmissionQueue.submit` a
  :class:`PendingRequest` (bounded queue = admission control — a full
  queue is an explicit ``overloaded`` rejection with ``retry_after``,
  never unbounded latency);
* the scheduler thread :meth:`~AdmissionQueue.collect`-s a batch: it
  blocks for the first request, then keeps the window open a few tens
  of milliseconds so requests arriving together ride one batch;
* :func:`run_generation_batch` opens one
  :class:`~repro.core.netshare.GenerateSession` per request and drives
  them **in lockstep**: each round it concatenates every live
  session's :meth:`plan_round` tasks into a single ``map_tasks`` call,
  then slices the results back per session.  Task sizes are already on
  the :func:`repro.nn.bucket_size` grid (the session plans them that
  way), so two callers asking for similar amounts replay the *same*
  warm tape in the worker pool — the coalescing win compounds with the
  tape cache.

Determinism: a session's tasks and seeds depend only on
``(model, n_records, derived seed)``, never on batch composition, so a
coalesced response is bit-identical to an offline
``NetShare.generate`` with the same derived seed.  The fixed-point
property of :func:`~repro.nn.bucket_size` (asserted in the tests) is
what lets both layers pad without double-padding.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.netshare import GenerateSession
from ..nn import bucket_size
from ..runtime.chunk_tasks import generate_chunk
from ..telemetry import emit_event
from .protocol import (
    derive_client_seed,
    error_response,
    ok_response,
    trace_to_payload,
)
from .registry import ModelRegistry

__all__ = [
    "PendingRequest",
    "AdmissionQueue",
    "run_generation_batch",
    "bucket_size",
]


@dataclass
class PendingRequest:
    """One queued ``generate`` request plus its completion slot."""

    request: Dict[str, Any]
    received: float = field(default_factory=time.monotonic)
    #: Called with this request once its response and latency are set,
    #: before its waiter wakes (the daemon records its metrics here).
    on_complete: Optional[Callable[["PendingRequest"], None]] = None
    _done: threading.Event = field(default_factory=threading.Event)
    response: Optional[Dict[str, Any]] = None
    #: Filled by the scheduler: seconds from enqueue to response ready.
    latency: Optional[float] = None

    def complete(self, response: Dict[str, Any]) -> None:
        self.latency = time.monotonic() - self.received
        self.response = response
        try:
            if self.on_complete is not None:
                self.on_complete(self)
        finally:
            self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)


class AdmissionQueue:
    """Bounded request queue: the daemon's admission-control valve.

    ``submit`` never blocks — a full queue returns ``False`` and the
    handler answers ``overloaded`` immediately, which keeps worst-case
    queueing delay proportional to ``limit`` instead of unbounded.
    """

    def __init__(self, limit: int = 64):
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.limit = int(limit)
        self._queue: "queue.Queue[PendingRequest]" = queue.Queue(limit)

    def submit(self, pending: PendingRequest) -> bool:
        try:
            self._queue.put_nowait(pending)
            return True
        except queue.Full:
            return False

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    def collect(self, window: float, max_batch: int,
                poll: float = 0.1) -> List[PendingRequest]:
        """Gather one batch: block up to ``poll`` seconds for a first
        request, then hold the coalescing ``window`` open (or until
        ``max_batch``) so near-simultaneous requests share a batch."""
        batch: List[PendingRequest] = []
        try:
            batch.append(self._queue.get(timeout=poll))
        except queue.Empty:
            return batch
        deadline = time.monotonic() + max(window, 0.0)
        while len(batch) < max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def drain(self) -> List[PendingRequest]:
        """Pop everything queued right now (shutdown bookkeeping)."""
        drained: List[PendingRequest] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                return drained


def _open_session(pending: PendingRequest, registry: ModelRegistry
                  ) -> Tuple[Optional[GenerateSession], Dict[str, Any]]:
    """Validate one request and open its session; returns
    ``(session, info)`` or ``(None, error fields)``."""
    request = pending.request
    name = request.get("model")
    if not isinstance(name, str) or not name:
        return None, {"message": "generate requires a 'model' name"}
    try:
        n_records = int(request.get("n_records", 0))
    except (TypeError, ValueError):
        return None, {"message": "'n_records' must be an integer"}
    if n_records < 1:
        return None, {"message": "'n_records' must be >= 1"}
    client_id = str(request.get("client_id", ""))
    try:
        seed = int(request.get("seed", 0))
    except (TypeError, ValueError):
        return None, {"message": "'seed' must be an integer"}
    derived = derive_client_seed(client_id, seed)
    try:
        entry = registry.get(name)
    except KeyError as exc:
        return None, {"message": str(exc)}
    except OSError as exc:
        return None, {"message": f"cannot load model {name!r}: {exc}"}
    session = GenerateSession(
        entry.model, n_records, seed=derived,
        encoder_state=entry.encoder_state,
        model_states=entry.model_states,
    )
    info = {
        "model": name,
        "model_generation": entry.generation,
        "derived_seed": derived,
        "n_records": n_records,
    }
    return session, info


def run_generation_batch(batch: List[PendingRequest],
                         registry: ModelRegistry,
                         executor, cache=None,
                         on_call: Optional[Callable[[List[Any]], None]]
                         = None) -> Dict[str, Any]:
    """Drive every request's session to completion on one executor.

    Rounds run in lockstep across sessions: the union of all live
    sessions' planned tasks goes through a single ``map_tasks`` call,
    and the ordered results are sliced back to their sessions.  Every
    request is answered — validation failures and degenerate-generator
    exhaustion become ``error`` responses, one bad request never takes
    the batch down.  ``on_call`` hears of each call's tasks before the
    call runs, so a caller's counters lead every response; the batch
    stats are returned (and journaled as ``serve_batch``).

    With a :class:`~repro.serve.cache.ResultCache`, a request whose
    ``(model, model generation, derived seed, n_records)`` key has a
    cached response is answered straight from the cache (flagged
    ``cached: True``) without planning a session; successful fresh
    responses are inserted on the way out.  The generation component
    of the key makes a model reload bypass stale entries for free.
    """
    sessions: List[Tuple[PendingRequest, GenerateSession, Dict[str, Any]]] = []
    cache_hits = 0
    for pending in batch:
        try:
            session, info = _open_session(pending, registry)
        except Exception as exc:  # defensive: malformed archive etc.
            session, info = None, {"message": f"{type(exc).__name__}: {exc}"}
        if session is None:
            pending.complete(error_response(**info))
            continue
        if cache is not None:
            cached = cache.get(cache.key_for(info))
            if cached is not None:
                cache_hits += 1
                pending.complete(cached)
                continue
        sessions.append((pending, session, info))

    stats = {
        "requests": len(batch),
        "generate_requests": len(sessions),
        "cache_hits": cache_hits,
        "executor_calls": 0,
        "tasks": 0,
    }
    # Sessions on one model share the registry's frozen states, so the
    # executor stages each state once per call, whatever the batch.
    live = list(sessions)
    while live:
        tasks = []
        slices: List[Tuple[Any, int, int]] = []
        for item in live:
            planned = item[1].plan_round()
            slices.append((item, len(tasks), len(planned)))
            tasks.extend(planned)
        if tasks:
            stats["executor_calls"] += 1
            stats["tasks"] += len(tasks)
            if on_call is not None:
                on_call(tasks)
            results = executor.map_tasks(generate_chunk, tasks)
        else:
            results = []
        for item, offset, count in slices:
            if count:
                item[1].consume_round(results[offset:offset + count])
        live = [item for item in live if not item[1].done]

    produced = 0
    for pending, session, info in sessions:
        try:
            trace = session.finish()
        except RuntimeError as exc:
            pending.complete(error_response(str(exc), **info))
            continue
        produced += len(trace)
        response = ok_response(
            trace=trace_to_payload(trace),
            records=len(trace),
            rounds=len(session.rounds_log),
            **info,
        )
        if cache is not None:
            cache.put(cache.key_for(info), response)
        pending.complete(response)
    emit_event("serve_batch", requests=stats["requests"],
               generate_requests=stats["generate_requests"],
               cache_hits=cache_hits,
               executor_calls=stats["executor_calls"],
               tasks=stats["tasks"], records=produced)
    return stats
