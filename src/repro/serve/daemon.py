"""The ``repro.serve`` daemon: sockets, scheduler, and lifecycle.

Thread layout (the whole design falls out of it):

* **handler threads** (one per connection, ``ThreadingTCPServer``)
  parse frames, answer ``healthz``/``metrics``/``models`` inline, and
  *enqueue* ``generate`` requests on the bounded
  :class:`~repro.serve.coalescer.AdmissionQueue` — then block on the
  request's completion event.  A full queue is answered ``overloaded``
  with ``retry_after`` right away: admission control happens at the
  socket, not by silent queueing.
* **one scheduler thread** owns everything stateful: it collects
  coalesced batches, loads models through the
  :class:`~repro.serve.registry.ModelRegistry`, and drives the batch
  through the shared executor.  Telemetry spans/journal events are
  process-local by design, so routing all generation through this one
  thread keeps the existing single-threaded telemetry contract intact
  without adding locks to the hot runtime.

Shutdown is a drain, not an abort: ``shutdown(drain=True)`` stops
accepting, lets the scheduler finish every admitted request (completing
stragglers with an error only when ``drain=False``), and only then
closes the executor — whose pool ``close`` itself waits for in-flight
``map_tasks`` so workers are never killed while reading a shared-memory
arena that is about to be unlinked.

The daemon keeps a private, always-on :class:`MetricsRegistry` whose
instruments are all created up front, so handler threads can snapshot
it while the scheduler updates values without racing dict growth; all
mutations go through one lock because the instruments themselves are
plain ``+=`` objects.
"""

from __future__ import annotations

import signal
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .. import telemetry
from ..runtime.executor import get_executor
from ..telemetry.metrics import MetricsRegistry, metrics_snapshot
from .cache import DEFAULT_CACHE_CAPACITY, ResultCache
from .coalescer import AdmissionQueue, PendingRequest, run_generation_batch
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    error_response,
    ok_response,
    overloaded_response,
    read_message,
)
from .registry import ModelRegistry

__all__ = ["ServeConfig", "ServeDaemon", "install_signal_handlers"]

#: Latency/batch-size buckets for the serve histograms: request
#: latencies from a coalescing window up to minutes, batch sizes on
#: the small-integer grid.
_LATENCY_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                    10.0, 30.0, 60.0, 120.0, 300.0)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Names of every instrument the daemon's private registry carries.
#: Created eagerly at init so snapshots never race instrument creation.
_COUNTERS = (
    "serve.connections",
    "serve.requests",
    "serve.generate.requests",
    "serve.generate.rejected",
    "serve.generate.errors",
    "serve.generate.records",
    "serve.batches",
    "serve.executor.calls",
    "serve.tasks",
    "serve.planned_flows",
    "serve.registry.hits",
    "serve.registry.misses",
    "serve.cache.hits",
    "serve.cache.misses",
)
_GAUGES = ("serve.queue.depth",)


@dataclass
class ServeConfig:
    """Tunables for one daemon instance.

    ``coalesce_window`` trades first-request latency for batching: the
    scheduler holds a batch open that long after the first arrival so
    concurrent small requests share one executor fan-out.  ``port=0``
    binds an ephemeral port (read it back from ``daemon.address``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    registry_capacity: int = 4
    coalesce_window: float = 0.05
    max_batch: int = 16
    queue_limit: int = 64
    retry_after: float = 0.25
    jobs: Optional[int] = None
    # Worker hosts ('host:port,host:port'; None falls back to
    # REPRO_HOSTS).  Hosts select the remote executor; without them,
    # jobs > 1 selects the local process pool.
    hosts: Optional[str] = None
    # Cross-request result cache capacity in responses (0 disables).
    # Keyed on (model, model generation, derived seed, n_records), so
    # a model reload bypasses stale entries via the generation bump.
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    drain_timeout: float = 30.0


class _ServeServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The daemon instance; set right after construction.
    serve_daemon: "ServeDaemon" = None


class _Handler(socketserver.StreamRequestHandler):
    """One persistent connection: read frames, answer in order."""

    def handle(self) -> None:
        daemon = self.server.serve_daemon
        daemon._count("serve.connections")
        while True:
            try:
                message = read_message(self.rfile)
            except ProtocolError as exc:
                # The stream may be desynchronized after a bad frame;
                # answer once and drop the connection.
                self._send(error_response(str(exc)))
                return
            if message is None:
                return
            try:
                response = daemon.handle_request(message)
            except Exception as exc:  # never kill the connection loop
                response = error_response(
                    f"internal error: {type(exc).__name__}: {exc}")
            if not self._send(response):
                return

    def _send(self, response: Dict[str, Any]) -> bool:
        try:
            self.wfile.write(encode_message(response))
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionError, OSError):
            return False


class ServeDaemon:
    """Long-running trace-generation service over line-delimited JSON.

    Usage::

        daemon = ServeDaemon(models={"ugr16": "models/ugr16.npz"})
        daemon.start()
        host, port = daemon.address
        ...
        daemon.shutdown()          # graceful drain

    ``models`` maps request-visible names to ``NetShare.save`` archive
    paths; more can be registered later via ``daemon.registry``.
    """

    def __init__(self, models: Optional[Dict[str, Any]] = None,
                 config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self._stats = MetricsRegistry()
        self._stats_lock = threading.Lock()
        for name in _COUNTERS:
            self._stats.counter(name)
        for name in _GAUGES:
            self._stats.gauge(name)
        self._stats.histogram("serve.request.latency_seconds",
                              _LATENCY_BUCKETS)
        self._stats.histogram("serve.batch.requests", _BATCH_BUCKETS)
        self.registry = ModelRegistry(
            capacity=self.config.registry_capacity,
            hit_counter=self._stats.counter("serve.registry.hits"),
            miss_counter=self._stats.counter("serve.registry.misses"),
        )
        for name, path in (models or {}).items():
            self.registry.register(name, path)
        self.cache = (ResultCache(
            self.config.cache_capacity,
            hit_counter=self._stats.counter("serve.cache.hits"),
            miss_counter=self._stats.counter("serve.cache.misses"),
        ) if self.config.cache_capacity > 0 else None)
        self.queue = AdmissionQueue(self.config.queue_limit)
        #: Test hook: clear to hold the scheduler *before* it runs a
        #: batch (requests pile up so queue-full paths can be staged
        #: deterministically); ``shutdown`` always re-sets it.
        self.gate = threading.Event()
        self.gate.set()
        #: Test hook: how many requests the scheduler has collected and
        #: holds at ``gate`` (0 while it is not waiting there), so a test
        #: can tell "collected and held" from "not collected yet".
        self.held = 0
        self._executor = None
        self._server: Optional[_ServeServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._scheduler: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._accepting = False
        self._drain_on_stop = True
        self._started_at: Optional[float] = None
        self._shutdown_done = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, spawn server + scheduler threads, start accepting."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._executor = get_executor(self.config.jobs, self.config.hosts)
        self._server = _ServeServer(
            (self.config.host, self.config.port), _Handler)
        self._server.serve_daemon = self
        self._started_at = time.monotonic()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-acceptor", daemon=True)
        self._scheduler = threading.Thread(
            target=self._scheduler_loop,
            name="repro-serve-scheduler", daemon=True)
        # Journal writes stay single-threaded: serve_start lands before
        # the scheduler thread (the only other event emitter) exists,
        # serve_stop after it has been joined.
        telemetry.emit_event(
            "serve_start", host=self.address[0], port=self.address[1],
            backend=self._executor.name, jobs=self._executor.jobs,
            queue_limit=self.config.queue_limit,
            coalesce_window=self.config.coalesce_window)
        self._accepting = True
        self._server_thread.start()
        self._scheduler.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0``)."""
        if self._server is None:
            raise RuntimeError("daemon not started")
        return self._server.server_address[:2]

    def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon (idempotent).

        With ``drain`` (the default) every already-admitted request is
        finished before the executor is closed; with ``drain=False``
        queued requests are answered with an error instead of being
        generated.  Either way the executor's own drain-aware ``close``
        runs last, so worker processes are never torn down while an
        in-flight ``map_tasks`` holds shared-memory references.
        """
        if self._shutdown_done:
            return
        self._shutdown_done = True
        self._accepting = False
        self._drain_on_stop = drain
        self._stop.set()
        self.gate.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
        if self._scheduler is not None and self._scheduler.is_alive():
            self._scheduler.join(timeout=self.config.drain_timeout)
        if self._executor is not None:
            self._executor.close()
        telemetry.emit_event("serve_stop", drain=drain,
                             uptime_seconds=self.uptime())

    def __enter__(self) -> "ServeDaemon":
        if self._server is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def uptime(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- request handling (handler threads) -----------------------------
    def handle_request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded request frame to a response dict."""
        op = message.get("op")
        self._count("serve.requests")
        if op == "healthz":
            return ok_response(
                accepting=self._accepting,
                uptime_seconds=self.uptime(),
                queue_depth=self.queue.depth,
                models=self.registry.names(),
            )
        if op == "metrics":
            return self.metrics_payload()
        if op == "models":
            return ok_response(
                models=self.registry.names(),
                resident=self.registry.resident(),
                registry=self.registry.stats(),
            )
        if op == "generate":
            return self._handle_generate(message)
        return error_response(
            f"unknown op {op!r}; expected generate/metrics/healthz/models")

    def _handle_generate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if not self._accepting:
            self._count("serve.generate.rejected")
            return overloaded_response(self.config.retry_after,
                                       reason="shutting down")
        pending = PendingRequest(message, on_complete=self._count_response)
        if not self.queue.submit(pending):
            self._count("serve.generate.rejected")
            return overloaded_response(self.config.retry_after,
                                       reason="queue full")
        with self._stats_lock:
            self._stats.gauge("serve.queue.depth").set(self.queue.depth)
        pending.wait()
        return pending.response

    def metrics_payload(self) -> Dict[str, Any]:
        """``metrics`` response: the daemon's private instruments plus
        the process-wide telemetry registry (both through the shared
        :func:`~repro.telemetry.metrics_snapshot` serializer)."""
        with self._stats_lock:
            serve = metrics_snapshot(self._stats)
        # The global registry can grow instruments concurrently (the
        # scheduler's journal/registry counters); retry once on a
        # mid-iteration mutation.
        for _ in range(2):
            try:
                process = metrics_snapshot(telemetry.metrics())
                break
            except RuntimeError:
                continue
        else:
            process = {"counters": {}, "gauges": {}, "histograms": {}}
        return ok_response(
            serve=serve,
            process=process,
            registry=self.registry.stats(),
            cache=self.cache.stats() if self.cache is not None else None,
            queue_depth=self.queue.depth,
            uptime_seconds=self.uptime(),
            version=PROTOCOL_VERSION,
        )

    def _count(self, name: str, amount: float = 1.0) -> None:
        with self._stats_lock:
            self._stats.counter(name).inc(amount)

    # -- scheduler thread ----------------------------------------------
    def _scheduler_loop(self) -> None:
        while True:
            batch = self.queue.collect(self.config.coalesce_window,
                                       self.config.max_batch)
            if not batch:
                if self._stop.is_set():
                    break
                continue
            self.held = len(batch)
            self.gate.wait()
            self.held = 0
            if self._stop.is_set() and not self._drain_on_stop:
                for pending in batch + self.queue.drain():
                    pending.complete(error_response(
                        "daemon shut down before the request ran"))
                continue
            self._run_batch(batch)
        # Belt and braces: nothing should remain, but never leave a
        # handler thread blocked on an event that will not fire.
        for pending in self.queue.drain():
            pending.complete(error_response(
                "daemon shut down before the request ran"))

    # Every counter that describes a request is recorded before that
    # request's waiter wakes: a batch when it starts, each executor call
    # before it runs, each response as it completes.  A metrics read
    # after a response therefore always includes its batch.
    def _run_batch(self, batch) -> None:
        with self._stats_lock:
            self._stats.counter("serve.batches").inc()
            self._stats.counter("serve.generate.requests").inc(len(batch))
            self._stats.histogram("serve.batch.requests",
                                  _BATCH_BUCKETS).observe(len(batch))
        try:
            run_generation_batch(batch, self.registry, self._executor,
                                 self.cache, on_call=self._count_call)
        except Exception as exc:
            # A failed batch answers every request; the daemon lives on.
            for pending in batch:
                if pending.response is None:
                    pending.complete(error_response(
                        f"batch failed: {type(exc).__name__}: {exc}"))
        with self._stats_lock:
            self._stats.gauge("serve.queue.depth").set(self.queue.depth)

    def _count_call(self, tasks) -> None:
        with self._stats_lock:
            self._stats.counter("serve.executor.calls").inc()
            self._stats.counter("serve.tasks").inc(len(tasks))
            # Planned sizes are already bucket_size fixed points; the
            # tally feeds the coalescing/padding metrics.
            self._stats.counter("serve.planned_flows").inc(
                sum(task.n_flows for task in tasks))

    def _count_response(self, pending: PendingRequest) -> None:
        response = pending.response or {}
        with self._stats_lock:
            self._stats.histogram("serve.request.latency_seconds",
                                  _LATENCY_BUCKETS).observe(pending.latency)
            self._stats.counter("serve.generate.records").inc(
                response.get("records", 0))
            if response.get("status") == "error":
                self._stats.counter("serve.generate.errors").inc()


def install_signal_handlers(daemon: ServeDaemon) -> threading.Event:
    """SIGTERM/SIGINT -> a graceful-drain request.

    The handler only sets an event (no heavy work in signal context);
    the caller waits on it and then runs ``daemon.shutdown(drain=True)``
    on its own thread.  Returns the event.
    """
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    return stop
