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
  and their tasks retried.  It announces ``uses_shared_memory``, so
  callers move bulk tensors and frozen states into a
  :class:`~repro.runtime.shm.SharedArena` and dispatch only tiny
  manifests through the pipe (the zero-copy data plane).

The pool persists for the lifetime of the executor — per-process
caches in :mod:`repro.runtime.chunk_tasks` (frozen-state thaw cache,
generate-side model/encoder caches) survive from one ``map_tasks``
call to the next, which is what makes ``generate``'s top-up rounds
cheap.  Executors are context managers; ``close()`` (or ``with``)
shuts the pool down, and a ``weakref.finalize`` backstop reaps workers
if an executor is dropped without closing.  Workers also exit on
their own once the coordinator process dies (SIGKILL, OOM kill), and
they share the coordinator's resource tracker, so shared-memory
blocks staged by a killed coordinator are still reclaimed.

Determinism contract: a task carries every RNG seed it needs (derived
from the model config, never from scheduling order), so backends only
change *where* a task runs — results are bit-identical across
backends and across ``jobs`` settings.  Telemetry likewise never
feeds an RNG: outputs are bit-identical with telemetry on or off.

Backend selection: ``get_executor(jobs, backend)``; a ``jobs`` of
``None`` falls back to the ``REPRO_JOBS`` environment variable, then
to 1 (serial), and ``jobs=0`` means "one worker per CPU".  A
``backend`` of ``None`` falls back to ``REPRO_BACKEND``, then to
serial/multiprocessing chosen by the job count.

Dispatch instrumentation: when ``REPRO_MEASURE_DISPATCH`` is set (the
perf benchmark harness does this), every ``map_tasks`` call records
the pickled size of its task list on ``dispatch_bytes`` /
``dispatch_tasks`` — the number the zero-copy plane exists to shrink.
Independently, while :mod:`repro.telemetry` is enabled the pool counts
the actual bytes written to worker pipes (``runtime.dispatch_bytes``)
and times every task (``runtime.task_seconds``), and each worker ships
its span buffer and metric deltas back inside the result envelope so
the orchestrator can splice one trace tree per run.
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
from multiprocessing import resource_tracker
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..telemetry.spans import set_task, span
from ..telemetry.state import STATE

__all__ = [
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "resolve_jobs",
    "resolve_backend",
    "get_executor",
    "register_backend",
    "JOBS_ENV_VAR",
    "BACKEND_ENV_VAR",
    "MEASURE_DISPATCH_ENV_VAR",
    "BACKENDS",
    "MAX_TASK_ATTEMPTS",
]

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV_VAR = "REPRO_JOBS"
#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: When set (to anything non-empty), executors record dispatch payload
#: sizes — used by the perf benchmark harness.
MEASURE_DISPATCH_ENV_VAR = "REPRO_MEASURE_DISPATCH"

#: Recognised backend names, in the order the docs present them.
#: ``remote`` fans tasks out to socket-connected worker hosts (see
#: :mod:`repro.runtime.remote`); its factory registers lazily so the
#: single-machine path never imports the socket layer.
BACKENDS = ("serial", "multiprocessing", "remote")

#: How many times one task may be dispatched before a dying worker is
#: treated as the task's fault and the run fails.
MAX_TASK_ATTEMPTS = 3


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


def resolve_backend(backend: Optional[str] = None) -> Optional[str]:
    """Resolve a backend name: explicit value > ``REPRO_BACKEND`` > None
    (None = pick serial/multiprocessing from the job count)."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or None
    if backend is None:
        return None
    backend = str(backend).lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def _run_inline(fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
    """In-process task loop shared by the serial backend and the
    single-worker fast path; records per-task spans and durations when
    telemetry is on (as children of the caller's ``map_tasks`` span)."""
    if not STATE.enabled:
        return [fn(task) for task in tasks]
    registry = STATE.registry
    fn_name = getattr(fn, "__name__", str(fn))
    results: List[Any] = []
    for index, task in enumerate(tasks):
        set_task(index)
        start = time.perf_counter()
        try:
            with span("task", index=index, fn=fn_name):
                results.append(fn(task))
        finally:
            set_task(None)
        registry.histogram("runtime.task_seconds").observe(
            time.perf_counter() - start)
        registry.counter("runtime.tasks_completed").inc()
    return results


# ----------------------------------------------------------------------
# Worker side of the pipe protocol.
#
# Dispatch message (pre-pickled by the parent, so the byte count that
# telemetry records is exactly what crossed the pipe):
#     (index, fn, task, telem)
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


def _worker_main(conn, coordinator: int) -> None:
    threading.Thread(target=_exit_when_orphaned, args=(coordinator,),
                     daemon=True).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, fn, task, telem = message
        payload = None
        if telem:
            telemetry.begin_worker_task(index)
        try:
            if telem:
                start = time.perf_counter()
                with span("task", index=index,
                          fn=getattr(fn, "__name__", str(fn))):
                    value = fn(task)
                STATE.registry.histogram("runtime.task_seconds").observe(
                    time.perf_counter() - start)
                STATE.registry.counter("runtime.tasks_completed").inc()
                payload = telemetry.export_worker_payload()
            else:
                value = fn(task)
            reply: Tuple[Any, ...] = (index, "ok", value, payload)
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            if telem:
                payload = telemetry.export_worker_payload()
            try:
                pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = (index, "error", exc, payload)
        try:
            conn.send(reply)
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


def _pool_context():
    """fork is cheapest where available (Linux); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


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
    """A persistent set of pipe-connected worker processes.

    Unlike ``multiprocessing.Pool`` (which deadlocks when a worker dies
    mid-task), each worker here owns a duplex pipe: a dead worker shows
    up as an ``EOFError`` on its connection, at which point the pool
    respawns a replacement and re-queues the in-flight task (up to
    :data:`MAX_TASK_ATTEMPTS` dispatches per task).
    """

    def __init__(self, ctx, max_workers: int):
        self._ctx = ctx
        self.max_workers = max_workers
        self._workers: List[_WorkerHandle] = []
        self._closed = False
        # Set while no run() is active: close(drain=True) waits on it
        # so a shutdown requested from another thread (the repro.serve
        # daemon's SIGTERM path) never terminates a worker mid-task —
        # in particular never while it is still reading a SharedArena
        # block the caller would then unlink.
        self._idle = threading.Event()
        self._idle.set()

    @property
    def worker_pids(self) -> List[int]:
        return [w.process.pid for w in self._workers]

    def _spawn(self) -> _WorkerHandle:
        worker = _spawn_worker(self._ctx)
        self._workers.append(worker)
        return worker

    def _discard(self, worker: _WorkerHandle) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any],
            workers: int, telem: bool) -> List[Any]:
        """Dispatch every task, in task order, over ``workers`` pipes."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        self._idle.clear()
        try:
            return self._run(fn, tasks, workers, telem)
        finally:
            self._idle.set()

    def _run(self, fn: Callable[[Any], Any], tasks: Sequence[Any],
             workers: int, telem: bool) -> List[Any]:
        results: List[Any] = [None] * len(tasks)
        pending: Deque[Tuple[int, Any]] = deque(enumerate(tasks))
        attempts: Dict[int, int] = {}
        in_flight: Dict[Any, Tuple[_WorkerHandle, int, Any]] = {}
        error: Optional[BaseException] = None
        registry = STATE.registry

        while len(self._workers) < min(workers, self.max_workers,
                                       len(tasks)):
            self._spawn()
        idle: Deque[_WorkerHandle] = deque(self._workers)

        while pending or in_flight:
            while pending and idle and error is None:
                index, task = pending.popleft()
                attempts[index] = attempts.get(index, 0) + 1
                worker = idle.popleft()
                blob = pickle.dumps((index, fn, task, telem),
                                    protocol=pickle.HIGHEST_PROTOCOL)
                if telem:
                    registry.counter("runtime.dispatch_bytes").inc(len(blob))
                    registry.counter("runtime.tasks_dispatched").inc()
                try:
                    worker.conn.send_bytes(blob)
                except (BrokenPipeError, OSError):
                    # Worker died while idle: replace it, put the task
                    # back (dispatch never reached it).
                    self._discard(worker)
                    if attempts[index] >= MAX_TASK_ATTEMPTS:
                        error = RuntimeError(
                            f"task {index} could not be dispatched after "
                            f"{MAX_TASK_ATTEMPTS} attempts: workers keep "
                            "dying")
                        break
                    self._note_retry(index, attempts[index], worker, telem)
                    pending.appendleft((index, task))
                    idle.append(self._spawn())
                    continue
                in_flight[worker.conn] = (worker, index, task)
            if not in_flight:
                break
            for conn in _conn_wait(list(in_flight)):
                worker, index, task = in_flight.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-task.
                    pid = worker.process.pid
                    self._discard(worker)
                    if attempts[index] >= MAX_TASK_ATTEMPTS:
                        if error is None:
                            error = RuntimeError(
                                f"task {index} failed {MAX_TASK_ATTEMPTS} "
                                f"times: worker died (last pid {pid})")
                        continue
                    self._note_retry(index, attempts[index], worker, telem)
                    if error is None:
                        pending.append((index, task))
                        idle.append(self._spawn())
                    continue
                _, status, value, payload = reply
                if telem:
                    telemetry.absorb_worker_payload(payload)
                if status == "ok":
                    results[index] = value
                elif error is None:
                    error = value
                idle.append(worker)
        if error is not None:
            raise error
        return results

    @staticmethod
    def _note_retry(index: int, attempt: int, worker: _WorkerHandle,
                    telem: bool) -> None:
        if telem:
            STATE.registry.counter("runtime.worker_retries").inc()
            telemetry.emit_event(
                "worker_retry", task=index, attempt=attempt,
                pid=worker.process.pid)

    #: How long close(drain=True) waits for an in-flight run() before
    #: shutting workers down anyway (a backstop, not a contract: the
    #: remaining batch is then interrupted mid-task).
    DRAIN_TIMEOUT = 60.0

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Shut the pool down (idempotent).

        With ``drain`` (the default), waits for any in-flight
        :meth:`run` — typically on another thread — to finish first,
        so workers are never terminated while holding task state or
        reading shared-memory blocks their caller is about to unlink.
        """
        if self._closed:
            return
        if drain:
            self._idle.wait(self.DRAIN_TIMEOUT if timeout is None
                            else timeout)
        self._closed = True
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
    #: True when callers should move bulk payloads into a SharedArena
    #: and dispatch manifests instead of tensors.
    uses_shared_memory: bool = False

    def __init__(self):
        #: Cumulative pickled task-payload bytes (only populated while
        #: REPRO_MEASURE_DISPATCH is set; None otherwise).
        self.dispatch_bytes: Optional[int] = None
        self.dispatch_tasks: int = 0

    @abstractmethod
    def map_tasks(self, fn: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> List[Any]:
        """Run ``fn`` on every task; return results in task order."""

    def close(self) -> None:
        """Release pooled workers (no-op for in-process backends)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _record_dispatch(self, tasks: Sequence[Any]) -> None:
        if not os.environ.get(MEASURE_DISPATCH_ENV_VAR, "").strip():
            return
        size = sum(
            len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            for task in tasks
        )
        self.dispatch_bytes = (self.dispatch_bytes or 0) + size
        self.dispatch_tasks += len(tasks)


class SerialExecutor(Executor):
    """In-process reference backend: a plain loop."""

    name = "serial"
    jobs = 1

    def map_tasks(self, fn, tasks):
        tasks = list(tasks)
        self._record_dispatch(tasks)
        with span("map_tasks", backend=self.name, tasks=len(tasks), jobs=1):
            return _run_inline(fn, tasks)


class MultiprocessingExecutor(Executor):
    """Fan tasks out across a persistent pipe-based worker pool.

    The task function must be a module-level callable and every task
    picklable.  Callers stage bulk tensors and frozen states in a
    :class:`~repro.runtime.shm.SharedArena` (``uses_shared_memory``),
    so each dispatched task is a few hundred bytes of manifest instead
    of megabytes of pickled tensor.  Single-task (or single-worker)
    calls run in-process to avoid worker startup cost — results are
    identical either way by the determinism contract.  The pool (and
    with it the workers' per-process caches) survives across
    ``map_tasks`` calls until ``close()``; a worker that dies mid-task
    is respawned and its task retried up to :data:`MAX_TASK_ATTEMPTS`
    dispatches.
    """

    name = "multiprocessing"
    uses_shared_memory = True

    def __init__(self, jobs: Optional[int] = None):
        super().__init__()
        self.jobs = resolve_jobs(jobs if jobs is not None else 0)
        self._pool: Optional[_WorkerPool] = None
        self._finalizer: Optional[weakref.finalize] = None

    def _ensure_pool(self) -> _WorkerPool:
        if self._pool is None:
            self._pool = _WorkerPool(_pool_context(), self.jobs)
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
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def map_tasks(self, fn, tasks):
        tasks = list(tasks)
        if not tasks:
            return []
        self._record_dispatch(tasks)
        workers = min(self.jobs, len(tasks))
        # Workers buffer their telemetry and ship it back only when the
        # orchestrating process is recording (never nested in a worker).
        telem = STATE.enabled and not STATE.worker_mode
        with span("map_tasks", backend=self.name, tasks=len(tasks),
                  jobs=workers):
            if workers <= 1:
                return _run_inline(fn, tasks)
            return self._ensure_pool().run(fn, tasks, workers, telem)


# Backend registry: name -> factory(jobs, hosts).  The in-process
# backends register here eagerly; the remote backend registers itself
# when repro.runtime.remote is imported (get_executor imports it
# lazily on first use so the socket layer stays off the single-machine
# import path).
_BACKEND_FACTORIES: Dict[str, Callable[..., Executor]] = {}


def register_backend(name: str,
                     factory: Callable[..., Executor]) -> None:
    """Register an executor factory for a :data:`BACKENDS` name.

    ``factory(jobs, hosts)`` must return an :class:`Executor`;
    backends that ignore one of the arguments simply drop it.
    """
    _BACKEND_FACTORIES[str(name)] = factory


register_backend("serial", lambda jobs, hosts: SerialExecutor())
register_backend("multiprocessing",
                 lambda jobs, hosts: MultiprocessingExecutor(jobs))


def get_executor(jobs: Optional[int] = None,
                 backend: Optional[str] = None,
                 hosts: Optional[str] = None) -> Executor:
    """Build the executor for a job count and optional backend name
    (see :func:`resolve_jobs` / :func:`resolve_backend`).

    ``hosts`` (a ``host:port,host:port`` list, or the ``REPRO_HOSTS``
    environment variable) only matters to the ``remote`` backend; when
    ``hosts`` is given without an explicit backend, remote is chosen.
    """
    resolved = resolve_jobs(jobs)
    chosen = resolve_backend(backend)
    if chosen is None and hosts:
        chosen = "remote"
    if chosen is None:
        chosen = "serial" if resolved <= 1 else "multiprocessing"
    if chosen not in _BACKEND_FACTORIES:
        # The remote factory lives in its own module; importing it
        # registers the backend (see module docstring there).
        from . import remote  # noqa: F401  (import-for-registration)
    return _BACKEND_FACTORIES[chosen](resolved, hosts)
