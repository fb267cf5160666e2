"""Pluggable task executors for embarrassingly-parallel training.

NetShare's headline scalability result (Insight 3, Fig 4) is that
per-chunk fine-tuning from a shared seed model is embarrassingly
parallel.  This module is the runtime that makes that real: training
work is expressed as stateless, picklable task objects mapped through
one ``Executor.map_tasks()`` interface, with two local backends (the
third, ``remote``, lives in :mod:`repro.runtime.remote`):

* :class:`SerialExecutor` — in-process loop (the default; also the
  reference semantics every other backend must reproduce bit-exactly);
* :class:`MultiprocessingExecutor` — a persistent pipe-based worker
  pool reused across ``map_tasks`` calls, with dead workers respawned
  and their tasks retried.  Callers hand it plain tasks; the executor
  alone decides what crosses the process boundary.  It packs each
  call's bulk payloads (:func:`~repro.runtime.serialization.
  pack_tasks`), stages what the pool's content-addressed
  :class:`~repro.runtime.shm.SharedArena` lacks, and dispatches only
  tiny manifests through the pipe (the zero-copy data plane).  Each
  worker rebuilds plain views before it calls the task function and
  closes them once its reply is pickled.  A call whose measured task
  work is small next to the measured fixed cost of a pooled call runs
  in-process instead, unstaged (:data:`INLINE_MULTIPLE`).

The pool itself (``_WorkerPool``) is only a mechanism: it spawns
workers, sends pre-pickled messages, turns ready pipes into replies,
and replaces dead workers, resending their messages within
:data:`MAX_TASK_ATTEMPTS`.  Two callers run it: this module's
executor, and every worker host (:mod:`repro.runtime.remote_worker`),
which runs all its tasks on one.

The pool and its arena persist for the lifetime of the executor —
per-process caches in :mod:`repro.runtime.chunk_tasks` (generate-side
model/encoder caches) and staged blobs survive from one ``map_tasks``
call to the next, which is what makes ``generate``'s top-up rounds
cheap.  Executors are context managers; ``close()`` (or ``with``)
waits for a ``map_tasks`` call in flight on another thread, shuts the
pool down, then unlinks the arena; ``weakref.finalize`` backstops
reap both for an executor dropped without closing.  Workers exit on
their own once the coordinator process dies (SIGKILL, OOM kill), and
they share its resource tracker, so shared-memory blocks staged by a
killed coordinator are still reclaimed.

Determinism contract: a task carries every RNG seed it needs (derived
from the model config, never from scheduling order), so backends only
change *where* a task runs — results are bit-identical across
backends and across ``jobs`` settings.  Telemetry likewise never
feeds an RNG: outputs are bit-identical with telemetry on or off.

Executor selection: ``get_executor(jobs, hosts)`` follows from what
the caller says.  Worker hosts (the ``hosts`` argument, else the
``REPRO_HOSTS`` environment variable) select ``remote`` at any job
count; otherwise more than one job selects ``multiprocessing``, and
anything else ``serial``.  A ``jobs`` of ``None`` falls back to the
``REPRO_JOBS`` environment variable, then to 1, and ``jobs=0`` means
"one worker per CPU".

Dispatch accounting: every task message the pool or ``remote`` sends
adds its bytes to ``dispatch_bytes`` / ``dispatch_tasks`` at one site
(:meth:`Executor._count_sent`) — the number the zero-copy plane exists
to shrink.  The serial backend and the pool's in-process calls send
nothing and count nothing.  While :mod:`repro.telemetry` is enabled
the same site feeds ``runtime.dispatch_bytes`` /
``runtime.tasks_dispatched`` (a resend after a worker death counts in
``runtime.worker_retries`` instead), the pool counts where each call
ran (``runtime.calls_inline`` / ``runtime.calls_pooled``, and
``inline`` on the ``map_tasks`` span), every task is timed
(``runtime.task_seconds``), and each worker ships its span buffer and
metric deltas back inside the result envelope so the orchestrator can
splice one trace tree per run.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import weakref
from abc import ABC, abstractmethod
from collections import deque
from contextlib import contextmanager
from multiprocessing import resource_tracker
from multiprocessing.connection import wait as _conn_wait
from typing import (Any, Callable, Deque, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from .. import telemetry
from ..telemetry.spans import set_task, span
from ..telemetry.state import STATE
from .serialization import manifest_hashes, pack_tasks, unpack_task
from .shm import Attachments, SharedArena, release_inherited

__all__ = [
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "resolve_jobs",
    "get_executor",
    "JOBS_ENV_VAR",
    "HOSTS_ENV_VAR",
    "MAX_TASK_ATTEMPTS",
    "INLINE_MULTIPLE",
]

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV_VAR = "REPRO_JOBS"
#: Worker host list (``host:port,host:port``) consulted when no
#: explicit ``hosts`` is given; set, it selects the ``remote`` executor.
HOSTS_ENV_VAR = "REPRO_HOSTS"

#: How many times one task may be dispatched before a dying worker is
#: treated as the task's fault and the run fails.
MAX_TASK_ATTEMPTS = 3

#: The process pool runs a multi-task call in-process when the call's
#: estimated task work is at most this multiple of the measured fixed
#: cost of a pooled call (derived in DESIGN.md §7 from the
#: ``placement`` section of ``BENCH_runtime.json``).
INLINE_MULTIPLE = 10.0
#: Weight of the newest observation in the placement estimates.
_EWMA_WEIGHT = 0.5


def _ewma(old: Optional[float], new: float) -> float:
    return new if old is None else old + _EWMA_WEIGHT * (new - old)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value > ``REPRO_JOBS`` > 1.

    ``0`` (from either source) expands to ``os.cpu_count()``.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV_VAR}={raw!r} is not an integer") from None
        else:
            jobs = 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one worker per CPU)")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def _traced_task(fn: Callable[[Any], Any], task: Any, index: int) -> Any:
    """Run one task while telemetry is on: under a ``task`` span whose
    id every span it opens carries, recording its seconds in
    ``runtime.task_seconds`` and its completion in
    ``runtime.tasks_completed``.  In-process loops and pool workers
    both go through here."""
    set_task(index)
    start = time.perf_counter()
    try:
        with span("task", index=index, fn=getattr(fn, "__name__", str(fn))):
            value = fn(task)
    finally:
        set_task(None)
    registry = STATE.registry
    registry.histogram("runtime.task_seconds").observe(
        time.perf_counter() - start)
    registry.counter("runtime.tasks_completed").inc()
    return value


def _run_inline(fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
    """In-process task loop shared by the serial backend and every call
    the pool runs in-process (task spans nest under the caller's
    ``map_tasks`` span)."""
    if not STATE.enabled:
        return [fn(task) for task in tasks]
    return [_traced_task(fn, task, index)
            for index, task in enumerate(tasks)]


# ----------------------------------------------------------------------
# Worker side of the pipe protocol.
#
# Dispatch message (pre-pickled by the parent, so the byte count it
# tallies is exactly what crossed the pipe):
#     (index, fn, packed_task, blocks, telem)
# where ``blocks`` maps each content hash the packed task references
# to the shared-memory block that holds it.
# Reply:
#     (index, "ok" | "error", result_or_exception, telemetry_payload)
# A ``None`` message is the shutdown sentinel.

#: Seconds between a worker's checks that its coordinator is alive.
_ORPHAN_CHECK_SECONDS = 0.5


def _exit_when_orphaned(coordinator: int) -> None:
    """Watchdog thread body: end this worker once the coordinator dies.

    Pipe EOF cannot carry that news: every worker forked after another
    inherits a copy of the earlier pipe's parent end, so a SIGKILLed
    or OOM-killed coordinator leaves its pipes open in its siblings.
    Reparenting is the signal that does arrive, mid-task or idle.
    """
    while os.getppid() == coordinator:
        time.sleep(_ORPHAN_CHECK_SECONDS)
    os._exit(1)


def _execute_task(index: int, fn: Callable[[Any], Any], task: Any,
                  telem: bool
                  ) -> Tuple[str, Any, Optional[Dict[str, Any]]]:
    """Run one task in a worker; return its ``(status, value,
    telemetry payload)`` envelope.  A failure becomes an ``"error"``
    envelope carrying a picklable exception without its traceback (the
    traceback's frames would keep the task's views alive)."""
    if telem:
        telemetry.begin_worker_task(index)
    try:
        value = _traced_task(fn, task, index) if telem else fn(task)
        status = "ok"
    except BaseException as exc:  # noqa: BLE001 - shipped to parent
        try:
            pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        status, value = "error", exc.with_traceback(None)
    return status, value, (telemetry.export_worker_payload() if telem
                           else None)


def run_packed(index: int, fn: Callable[[Any], Any], packed: Any,
               blocks: Mapping[str, str], telem: bool) -> bytes:
    """Worker side of one staged task: rebuild plain views of its
    blocks, run it, and return its pickled ``(index, status, value,
    telemetry)`` reply.  The mappings it opened are closed once the
    reply is pickled, so a long-lived worker holds no block of a
    finished call."""
    with Attachments() as attachments:
        return pickle.dumps((index,) + _execute_task(
            index, fn, unpack_task(packed, blocks, attachments), telem),
            protocol=pickle.HIGHEST_PROTOCOL)


def _worker_main(conn, coordinator: int) -> None:
    release_inherited()
    threading.Thread(target=_exit_when_orphaned, args=(coordinator,),
                     daemon=True).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        try:
            conn.send_bytes(run_packed(*message))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


class _WorkerHandle:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn


def _spawn_worker(ctx) -> _WorkerHandle:
    """Start one pipe-connected worker process.

    The resource tracker starts first, so a forked worker shares the
    coordinator's: its shared-memory attaches then re-register names
    the coordinator already owns (a no-op), and the tracker reclaims
    every staged block once coordinator and workers are all gone.
    """
    resource_tracker.ensure_running()
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(target=_worker_main,
                          args=(child_conn, os.getpid()), daemon=True)
    process.start()
    child_conn.close()
    return _WorkerHandle(process, parent_conn)


def _close_pool(workers: List[_WorkerHandle]) -> None:
    """Shut a pool's workers down (also the ``weakref.finalize``
    backstop when an executor is dropped without ``close()``)."""
    sentinel = pickle.dumps(None, protocol=pickle.HIGHEST_PROTOCOL)
    for worker in workers:
        try:
            worker.conn.send_bytes(sentinel)
        except (BrokenPipeError, OSError):
            pass
    for worker in workers:
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
        try:
            worker.conn.close()
        except OSError:
            pass
    workers.clear()


class _WorkerPool:
    """A persistent set of pipe-connected worker processes, driven by
    one thread through :meth:`submit` and :meth:`collect`.

    Unlike ``multiprocessing.Pool`` (which deadlocks when a worker dies
    mid-task), each worker here owns a duplex pipe: a dead worker shows
    up as an ``EOFError`` on its connection, at which point the pool
    replaces it and resends its message, up to :data:`MAX_TASK_ATTEMPTS`
    dispatches per message.  ``on_retry(key, attempt, pid)`` hears of
    every resend.  The ``multiprocessing`` backend drives one pool per
    executor; a worker host drives one for its lifetime, whatever its
    ``--jobs``, naming itself in its errors through ``where``.
    """

    def __init__(self, max_workers: int,
                 on_retry: Callable[[Any, int, int], None],
                 where: str = ""):
        # fork is cheapest where available (Linux); spawn elsewhere.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self.max_workers = max_workers
        self._on_retry = on_retry
        self._where = where
        self._workers: List[_WorkerHandle] = []
        self._idle: Deque[_WorkerHandle] = deque()
        # worker conn -> (worker, key, message, dispatches so far)
        self._busy: Dict[Any, Tuple[_WorkerHandle, Any, bytes, int]] = {}
        self._closed = False

    @property
    def worker_pids(self) -> List[int]:
        return [w.process.pid for w in self._workers]

    @property
    def busy(self) -> int:
        """Messages sent whose replies :meth:`collect` has not returned."""
        return len(self._busy)

    def _spawn(self) -> _WorkerHandle:
        # close() empties the idle queue, so this check also seals
        # submit() on a closed pool.
        if self._closed:
            raise RuntimeError("worker pool is closed")
        worker = _spawn_worker(self._ctx)
        self._workers.append(worker)
        return worker

    def _discard(self, worker: _WorkerHandle) -> None:
        self._workers.remove(worker)
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def start(self, workers: int) -> None:
        """Spawn up to ``workers`` workers and queue every worker idle in
        spawn order (only while nothing is busy).

        A call then hands its first tasks to the workers in spawn order.
        Each worker's caches (model, encoder, inference tapes)
        fill with whatever tasks land on it, so a fixed order keeps the
        same work on the same worker from one call to the next.
        """
        while len(self._workers) < min(workers, self.max_workers):
            self._spawn()
        self._idle = deque(self._workers)

    def submit(self, key: Any, message: bytes, attempt: int = 1) -> None:
        """Send one pre-pickled ``(key, fn, packed, blocks, telem)``
        message to an idle worker, spawning one while the pool has
        fewer than ``max_workers``.  ``attempt`` counts this dispatch
        (resends from :meth:`collect` pass it on).  A send that fails
        still counts: the dead worker's pipe reads EOF in
        :meth:`collect`, which resends or fails the message."""
        if self._idle:
            worker = self._idle.popleft()
        elif len(self._workers) < self.max_workers:
            worker = self._spawn()
        else:
            raise RuntimeError("every pool worker is busy")
        self._busy[worker.conn] = (worker, key, message, attempt)
        try:
            worker.conn.send_bytes(message)
        except (BrokenPipeError, OSError):
            pass

    def collect(self, *others: Any) -> Tuple[List[Tuple[int, Any]],
                                              List[Any]]:
        """Wait until a busy worker's pipe, or one of ``others``, is
        ready; return the replies that arrived and the ready ``others``.

        Each reply is ``(pid, (key, status, value, telemetry))`` with the
        pid of the worker that ran it.  A worker that died is replaced
        and its message resent; once the message has had
        :data:`MAX_TASK_ATTEMPTS` dispatches, its reply is an
        ``"error"`` carrying a :class:`RuntimeError`.
        """
        ready = _conn_wait(list(self._busy) + list(others))
        replies: List[Tuple[int, Any]] = []
        for conn in ready:
            if conn not in self._busy:
                continue
            worker, key, message, attempt = self._busy.pop(conn)
            pid = worker.process.pid
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self._discard(worker)
                if attempt < MAX_TASK_ATTEMPTS:
                    self._on_retry(key, attempt, pid)
                    self.submit(key, message, attempt + 1)
                    continue
                reply = (key, "error", RuntimeError(
                    f"task {key} failed {MAX_TASK_ATTEMPTS} times"
                    f"{self._where}: worker died (last pid {pid})"), None)
            else:
                self._idle.append(worker)
            replies.append((pid, reply))
        return replies, [item for item in ready if item in others]

    def close(self) -> None:
        """Shut the workers down (idempotent); the pool stays sealed."""
        self._closed = True
        self._idle.clear()
        self._busy.clear()
        _close_pool(self._workers)


class Executor(ABC):
    """Maps a task function over a sequence of task objects.

    Results are returned in task order regardless of completion order,
    so callers can zip tasks with results.  Executors are context
    managers; ``close()`` releases any worker pool.
    """

    #: Human-readable backend name (surfaced in NetShare diagnostics).
    name: str = "base"
    #: Number of concurrent workers this executor may use.
    jobs: int = 1
    #: How long a pooled backend's close() waits for a map_tasks call in
    #: flight on another thread before releasing its workers anyway (a
    #: backstop, not a contract: the rest of that call is then
    #: interrupted mid-task).
    DRAIN_TIMEOUT = 60.0

    def __init__(self):
        #: Bytes and count of the task messages this executor has sent
        #: to workers or hosts (see :meth:`_count_sent`).
        self.dispatch_bytes: int = 0
        self.dispatch_tasks: int = 0
        # Set while no pooled map_tasks call is in flight.  close() waits
        # on it, so a shutdown requested from another thread (the
        # repro.serve daemon's SIGTERM path) never ends a worker
        # mid-task, in particular never while it still reads a block
        # close() is about to unlink.
        self._idle = threading.Event()
        self._idle.set()

    @abstractmethod
    def map_tasks(self, fn: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> List[Any]:
        """Run ``fn`` on every task; return results in task order."""

    def close(self) -> None:
        """Release pooled workers (no-op for in-process backends)."""

    @contextmanager
    def _in_flight(self) -> Iterator[None]:
        """Mark one map_tasks call in flight for :meth:`_drain`."""
        self._idle.clear()
        try:
            yield
        finally:
            self._idle.set()

    def _drain(self) -> None:
        """Wait (up to :attr:`DRAIN_TIMEOUT`) for a map_tasks call in
        flight on another thread; pooled backends' close() calls it
        first."""
        self._idle.wait(self.DRAIN_TIMEOUT)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _count_sent(self, nbytes: int, telem: bool) -> None:
        """Tally one task message of ``nbytes`` as it is sent: the one
        dispatch count, mirrored into ``runtime.dispatch_bytes`` /
        ``runtime.tasks_dispatched`` while ``telem`` (telemetry on,
        outside a worker).  It runs inside the fixed cost a pooled
        call measures, so with telemetry off it is two integer adds."""
        self.dispatch_bytes += nbytes
        self.dispatch_tasks += 1
        if telem:
            registry = STATE.registry
            registry.counter("runtime.dispatch_bytes").inc(nbytes)
            registry.counter("runtime.tasks_dispatched").inc()


class SerialExecutor(Executor):
    """In-process reference backend: a plain loop."""

    name = "serial"
    jobs = 1

    def map_tasks(self, fn, tasks):
        tasks = list(tasks)
        with span("map_tasks", backend=self.name, tasks=len(tasks), jobs=1):
            return _run_inline(fn, tasks)


class MultiprocessingExecutor(Executor):
    """Fan tasks out across a persistent pipe-based worker pool.

    The task function must be a module-level callable and every task
    picklable.  Each pooled call stages its tasks' bulk tensors and
    frozen states in the pool's content-addressed :class:`~repro.
    runtime.shm.SharedArena` (a later call on the same states stages
    nothing), so each dispatched task is a few hundred bytes of
    manifest instead of megabytes of pickled tensor.

    Placement: single-task (or single-worker) calls run in-process,
    unstaged.  So does a multi-task call whose estimated task work is
    at most :data:`INLINE_MULTIPLE` times the fixed cost of a pooled
    call.  The executor measures both on the calls it makes: seconds
    per task of each task function (every call updates it), and each
    pooled call's wall time minus its busiest worker's task seconds.
    A function it has not timed yet goes to the pool, so the first
    call of every function on a fresh executor pools.  Results are the
    same bits either way, by the determinism contract.

    The pool (and with it the workers' per-process caches and the
    arena) survives across ``map_tasks`` calls until ``close()``; a
    worker that dies mid-task is respawned and its task retried up to
    :data:`MAX_TASK_ATTEMPTS` dispatches.
    """

    name = "multiprocessing"

    def __init__(self, jobs: Optional[int] = None):
        super().__init__()
        self.jobs = resolve_jobs(jobs if jobs is not None else 0)
        self._pool: Optional[_WorkerPool] = None
        self._arena: Optional[SharedArena] = None
        self._finalizer: Optional[weakref.finalize] = None
        # The placement rule's running estimates: seconds per task of
        # each task function, and the fixed cost of one pooled call.
        self._task_seconds: Dict[Callable[[Any], Any], float] = {}
        self._fixed_seconds: Optional[float] = None

    def _ensure_pool(self) -> _WorkerPool:
        if self._pool is None:
            self._pool = _WorkerPool(self.jobs, on_retry=_note_retry)
            self._arena = SharedArena()
            # Backstop: reap workers if the executor is garbage
            # collected without close() (must not capture ``self``).
            self._finalizer = weakref.finalize(
                self, _close_pool, self._pool._workers)
        return self._pool

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of live pooled workers (observability/testing)."""
        return self._pool.worker_pids if self._pool is not None else []

    def close(self) -> None:
        self._drain()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def map_tasks(self, fn, tasks):
        tasks = list(tasks)
        if not tasks:
            return []
        workers = min(self.jobs, len(tasks))
        inline = workers <= 1 or self._pays_inline(fn, len(tasks))
        # Workers buffer their telemetry and ship it back only when the
        # orchestrating process is recording (never nested in a worker).
        telem = STATE.enabled and not STATE.worker_mode
        if telem:
            STATE.registry.counter("runtime.calls_inline" if inline
                                   else "runtime.calls_pooled").inc()
        with span("map_tasks", backend=self.name, tasks=len(tasks),
                  jobs=workers, inline=inline):
            if inline:
                start = time.perf_counter()
                results = _run_inline(fn, tasks)
                task_seconds = time.perf_counter() - start
            else:
                with self._in_flight():
                    results, task_seconds, fixed_seconds = self._run(
                        fn, tasks, workers, telem)
                self._fixed_seconds = _ewma(self._fixed_seconds,
                                            fixed_seconds)
        self._task_seconds[fn] = _ewma(self._task_seconds.get(fn),
                                       task_seconds / len(tasks))
        return results

    def _pays_inline(self, fn: Callable[[Any], Any], n_tasks: int) -> bool:
        """The placement rule: run a call in-process when its estimated
        task work is at most :data:`INLINE_MULTIPLE` times the measured
        fixed cost of a pooled call.  A task function the executor has
        not timed yet, or an executor that has not pooled a call yet,
        goes to the pool.  Placement never touches a seed, so results
        are the same bits either way."""
        per_task = self._task_seconds.get(fn)
        fixed = self._fixed_seconds
        return (per_task is not None and fixed is not None
                and n_tasks * per_task <= INLINE_MULTIPLE * fixed)

    def _run(self, fn: Callable[[Any], Any], tasks: List[Any],
             workers: int, telem: bool
             ) -> Tuple[List[Any], float, float]:
        """Stage the call's payloads and dispatch every task, in task
        order, over ``workers`` pipes; return the results, the summed
        task seconds, and the call's fixed cost.

        Workers are spawned before staging.  Staged blobs stay linked
        after the call returns, raises or loses a worker, until a later
        call evicts them or ``close()`` unlinks them.  After the first
        task error no further task is sent; the call waits for those in
        flight, then raises it.

        A task's seconds run from its submit to its reply, so pipe and
        unpickle time count as task work.  The fixed cost is the call's
        wall time after the pool is up minus the busiest worker's task
        seconds: packing, staging what the arena lacks and pickling.
        Spawning is left out; a pool pays it once, on a call that pools
        anyway.
        """
        pool = self._ensure_pool()
        pool.start(workers)
        start = time.perf_counter()
        packed, blobs = pack_tasks(tasks)
        names = self._arena.stage(blobs)
        messages = [pickle.dumps(
            (index, fn, task,
             {h: names[h] for h in manifest_hashes(task)}, telem),
            protocol=pickle.HIGHEST_PROTOCOL)
            for index, task in enumerate(packed)]
        results: List[Any] = [None] * len(messages)
        pending: Deque[int] = deque(range(len(messages)))
        error: Optional[BaseException] = None
        sent: Dict[int, float] = {}
        busy: Dict[int, float] = {}   # worker pid -> task seconds
        while (pending and error is None) or pool.busy:
            while pending and error is None and pool.busy < workers:
                index = pending.popleft()
                self._count_sent(len(messages[index]), telem)
                sent[index] = time.perf_counter()
                pool.submit(index, messages[index])
            replies, _ = pool.collect()
            now = time.perf_counter()
            for pid, (index, status, value, payload) in replies:
                busy[pid] = busy.get(pid, 0.0) + now - sent[index]
                if telem:
                    telemetry.absorb_worker_payload(payload)
                if status == "ok":
                    results[index] = value
                elif error is None:
                    error = value
        if error is not None:
            raise error
        fixed = time.perf_counter() - start - max(busy.values())
        return results, sum(busy.values()), max(fixed, 0.0)


def _note_retry(index: int, attempt: int, pid: int) -> None:
    """The pool's resend hook: count and journal a worker death."""
    if STATE.enabled and not STATE.worker_mode:
        STATE.registry.counter("runtime.worker_retries").inc()
        telemetry.emit_event("worker_retry", task=index, attempt=attempt,
                             pid=pid)


def get_executor(jobs: Optional[int] = None,
                 hosts: Optional[str] = None) -> Executor:
    """Build the executor for a job count (see :func:`resolve_jobs`)
    and optional worker hosts.

    Hosts (a ``host:port,host:port`` list, else the ``REPRO_HOSTS``
    environment variable) select ``remote``; otherwise more than one
    job selects ``multiprocessing``, and anything else ``serial``.
    """
    resolved = resolve_jobs(jobs)
    if hosts is None:
        hosts = os.environ.get(HOSTS_ENV_VAR, "").strip()
    if hosts:
        # Imported here so the single-machine path never loads the
        # socket layer.
        from .remote import RemoteExecutor
        return RemoteExecutor(hosts=hosts)
    if resolved > 1:
        return MultiprocessingExecutor(resolved)
    return SerialExecutor()
