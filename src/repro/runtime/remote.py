"""Multi-host ``remote`` executor backend: the coordinator side.

Every speedup before this module — shm zero-copy staging, persistent
pipe pools, tape replay — stops at one machine's cores.  The remote
backend extends ``Executor.map_tasks()`` past that boundary: a
coordinator ships task manifests to long-lived worker-host processes
(``python -m repro.runtime.remote_worker --listen HOST:PORT``) over
the length-prefixed framing of :mod:`repro.runtime.wire`.

Design, point by point:

* **Manifests, not payloads.**  Callers hand the coordinator plain
  tasks, exactly as they hand them to the local pool, and
  :func:`~repro.runtime.serialization.pack_tasks` rewrites them the
  same way: bulk tensors and frozen states become content-hash blob
  manifests, and the blob bytes ship separately — at most once per
  host per content hash (the per-link ``shipped`` ledger, mirroring
  the serve registry's zero-pickling-on-hit design).  The coordinator
  keeps no arena of its own; each host stages the blobs it receives
  into its *own* ``SharedArena`` for its local workers.
* **Fault model.**  The pipe pool's respawn/retry semantics
  generalize: a dead host (EOF, torn frame, socket error/timeout)
  gets its in-flight tasks re-queued onto surviving hosts, bounded by
  :data:`~repro.runtime.executor.MAX_TASK_ATTEMPTS` dispatches per
  task; the dead host is redialed with exponential backoff and,
  on reconnect, a cleared dedup ledger (its blob store may be gone).
  ``close()`` is idempotent and, like the local pool's, waits for
  a map in flight on another thread (the drain guard both inherit
  from :class:`~repro.runtime.executor.Executor`).
* **Determinism.**  Tasks carry every seed they need, so *where* a
  task runs never changes its result: remote output is bit-identical
  to the serial oracle for fit, generate, and serve — the parity
  tests and ``BENCH_remote.json`` gate exactly that.

Trust model: frames are pickles (see :mod:`repro.runtime.wire`), so
hosts must be trusted peers on a private network or loopback.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..telemetry import emit_event
from ..telemetry.spans import span
from ..telemetry.state import STATE
from .executor import HOSTS_ENV_VAR, Executor, MAX_TASK_ATTEMPTS
from .serialization import manifest_hashes, pack_tasks
from .wire import FrameError, check_frame, recv_frame, send_frame

__all__ = [
    "RemoteExecutor",
    "WorkerHostProcess",
    "spawn_worker_host",
    "parse_hosts",
    "HOSTS_ENV_VAR",
    "REMOTE_TIMEOUT_ENV_VAR",
    "WIRE_VERSION",
]

#: Optional per-task socket deadline in seconds: a host that holds a
#: task longer is treated as dead (its tasks re-queue).  Unset = wait.
REMOTE_TIMEOUT_ENV_VAR = "REPRO_REMOTE_TIMEOUT"

#: Coordinator/host protocol version, checked in the hello exchange.
WIRE_VERSION = 2

#: Field count of each host reply kind; a malformed reply is a dead
#: host.
_REPLY_ARITY = {"result": 5, "need": 3, "pong": 1}

#: Reconnect backoff: ``BASE * 2**(failures-1)`` capped at ``CAP``.
RECONNECT_BASE = 0.05
RECONNECT_CAP = 2.0
#: Consecutive connect failures per host before a map_tasks call with
#: no surviving hosts gives up.
MAX_CONNECT_FAILURES = 6

#: Socket timeout for the connect + hello exchange.
CONNECT_TIMEOUT = 5.0
#: Per-recv/send chunk timeout once connected: a peer that stalls the
#: transport this long mid-frame is dead for our purposes.
FRAME_TIMEOUT = 120.0


def parse_hosts(hosts: Optional[Any]) -> List[Tuple[str, int]]:
    """Normalize a host list: ``"h:p,h:p"``, an iterable of ``"h:p"``
    strings or ``(host, port)`` pairs; falls back to ``REPRO_HOSTS``."""
    if hosts is None:
        hosts = os.environ.get(HOSTS_ENV_VAR, "").strip() or None
    if hosts is None:
        raise ValueError(
            "the remote backend needs worker hosts: pass hosts="
            f"'host:port,host:port' or set {HOSTS_ENV_VAR}")
    if isinstance(hosts, str):
        hosts = [part for part in hosts.split(",") if part.strip()]
    parsed: List[Tuple[str, int]] = []
    for entry in hosts:
        if isinstance(entry, (tuple, list)) and len(entry) == 2:
            parsed.append((str(entry[0]), int(entry[1])))
            continue
        text = str(entry).strip()
        host, sep, port = text.rpartition(":")
        if not sep or not host:
            raise ValueError(f"host entry {text!r} is not host:port")
        parsed.append((host, int(port)))
    if not parsed:
        raise ValueError("empty remote host list")
    return parsed


class _HostLink:
    """Connection state for one worker host."""

    __slots__ = ("addr", "label", "sock", "slots", "pid", "shipped",
                 "in_flight", "failures", "next_retry")

    def __init__(self, addr: Tuple[str, int]):
        self.addr = addr
        self.label = f"{addr[0]}:{addr[1]}"
        self.sock: Optional[socket.socket] = None
        self.slots = 1
        self.pid: Optional[int] = None
        #: Blob hashes this host holds (per-connection dedup ledger).
        self.shipped: Set[str] = set()
        #: task index -> optional wall deadline (REPRO_REMOTE_TIMEOUT).
        self.in_flight: Dict[int, Optional[float]] = {}
        self.failures = 0
        self.next_retry = 0.0

    @property
    def connected(self) -> bool:
        return self.sock is not None

    def backoff(self) -> float:
        return min(RECONNECT_BASE * (2 ** max(self.failures - 1, 0)),
                   RECONNECT_CAP)


class RemoteExecutor(Executor):
    """Fan ``map_tasks`` out across socket-connected worker hosts.

    ``hosts`` is a ``host:port,host:port`` string (or list), defaulting
    to the ``REPRO_HOSTS`` environment variable.  Connections are
    dialed lazily on the first ``map_tasks`` call and persist across
    calls, so host-side blob stores and per-process model/encoder
    caches stay warm for generate's top-up rounds — exactly like the
    pipe pool, one network hop further out.
    """

    name = "remote"

    def __init__(self, jobs: Optional[int] = None,
                 hosts: Optional[Any] = None):
        super().__init__()
        self._links = [_HostLink(addr) for addr in parse_hosts(hosts)]
        # Until the hello exchange reports real slot counts, assume
        # one slot per host (jobs is advisory for this backend).
        self.jobs = max(len(self._links), int(jobs or 0) or 1)
        self._closed = False
        raw_timeout = os.environ.get(REMOTE_TIMEOUT_ENV_VAR, "").strip()
        self._task_timeout = float(raw_timeout) if raw_timeout else None
        #: Wire accounting, exposed for the dedup/dispatch-byte gates:
        #: blob ship counts per (host label, content hash) plus totals.
        self.ship_counts: Dict[Tuple[str, str], int] = {}
        self.stats: Dict[str, int] = {
            "tasks_sent": 0, "task_bytes_sent": 0,
            "blobs_sent": 0, "blob_bytes_sent": 0, "blob_dedup_hits": 0,
            "retries": 0, "reconnects": 0, "host_failures": 0,
        }

    # -- connection management -----------------------------------------
    @property
    def host_labels(self) -> List[str]:
        return [link.label for link in self._links]

    @property
    def connected_hosts(self) -> List[str]:
        return [link.label for link in self._links if link.connected]

    def _connect(self, link: _HostLink) -> None:
        sock = socket.create_connection(link.addr, timeout=CONNECT_TIMEOUT)
        try:
            send_frame(sock, ("hello", {
                "version": WIRE_VERSION,
                "run_id": STATE.run_id,
            }))
            reply = check_frame(recv_frame(sock), {"hello": 2})
            if reply is None or not isinstance(reply[1], dict):
                raise FrameError(f"host {link.label} sent a bad hello")
            info = reply[1]
            if info.get("version") != WIRE_VERSION:
                raise RuntimeError(
                    f"host {link.label} speaks wire version "
                    f"{info.get('version')}, coordinator speaks "
                    f"{WIRE_VERSION}")
        except BaseException:
            sock.close()
            raise
        sock.settimeout(FRAME_TIMEOUT)
        link.sock = sock
        link.slots = max(int(info.get("slots", 1)), 1)
        link.pid = info.get("pid")
        link.shipped.clear()
        link.in_flight.clear()
        if link.failures:
            self.stats["reconnects"] += 1
            if STATE.enabled:
                STATE.registry.counter("runtime.remote.reconnects").inc()
        link.failures = 0
        emit_event("remote_host_connect", host=link.label,
                   slots=link.slots, pid=link.pid)

    def _reconnect_due(self, now: float) -> None:
        for link in self._links:
            if link.connected or now < link.next_retry:
                continue
            try:
                self._connect(link)
            except (OSError, FrameError, ConnectionError):
                link.failures += 1
                link.next_retry = now + link.backoff()
                emit_event("remote_reconnect_failed", host=link.label,
                           failures=link.failures,
                           backoff=round(link.backoff(), 3))
        live = [link for link in self._links if link.connected]
        if live:
            self.jobs = sum(link.slots for link in live)

    def _host_down(self, link: _HostLink, pending: Deque[int],
                   attempts: Dict[int, int], telem: bool
                   ) -> Optional[BaseException]:
        """Tear one link down; re-queue its in-flight tasks.  Returns
        an error when a task has exhausted its dispatch budget."""
        error: Optional[BaseException] = None
        if link.sock is not None:
            try:
                link.sock.close()
            except OSError:
                pass
        link.sock = None
        requeued = list(link.in_flight)
        link.in_flight.clear()
        link.shipped.clear()
        link.failures += 1
        link.next_retry = time.monotonic() + link.backoff()
        self.stats["host_failures"] += 1
        emit_event("remote_host_down", host=link.label,
                   in_flight=len(requeued), failures=link.failures)
        if telem and STATE.enabled:
            STATE.registry.counter("runtime.remote.host_failures").inc()
        for index in requeued:
            if attempts.get(index, 0) >= MAX_TASK_ATTEMPTS:
                error = RuntimeError(
                    f"task {index} failed {MAX_TASK_ATTEMPTS} times: "
                    f"remote hosts keep dying (last {link.label})")
                continue
            self.stats["retries"] += 1
            if telem and STATE.enabled:
                STATE.registry.counter("runtime.remote.retries").inc()
            emit_event("remote_retry", task=index,
                       attempt=attempts.get(index, 0), host=link.label)
            pending.append(index)
        return error

    # -- dispatch / receive --------------------------------------------
    def _dispatch(self, link: _HostLink, index: int, fn, packed: Any,
                  needed: Sequence[str], blobs, telem: bool) -> None:
        """Ship missing blobs, then the task frame (raises OSError on a
        dead transport — the caller owns the fault handling)."""
        sock = link.sock
        for content_hash in needed:
            if content_hash in link.shipped:
                self.stats["blob_dedup_hits"] += 1
                if telem and STATE.enabled:
                    STATE.registry.counter(
                        "runtime.remote.blob_dedup_hits").inc()
                continue
            blob = blobs[content_hash]
            send_frame(sock, ("blob", content_hash, blob.dtype.str,
                              tuple(blob.shape), blob.tobytes()))
            link.shipped.add(content_hash)
            key = (link.label, content_hash)
            self.ship_counts[key] = self.ship_counts.get(key, 0) + 1
            self.stats["blobs_sent"] += 1
            self.stats["blob_bytes_sent"] += int(blob.nbytes)
            if telem and STATE.enabled:
                STATE.registry.counter("runtime.remote.blobs_sent").inc()
                STATE.registry.counter(
                    "runtime.remote.blob_bytes").inc(int(blob.nbytes))
        nbytes = send_frame(sock, ("task", index, fn, packed, telem))
        self._record_dispatch([nbytes])
        self.stats["tasks_sent"] += 1
        self.stats["task_bytes_sent"] += nbytes
        if telem and STATE.enabled:
            STATE.registry.counter("runtime.remote.dispatch_bytes").inc(
                nbytes)
            STATE.registry.counter("runtime.tasks_dispatched").inc()
        deadline = (time.monotonic() + self._task_timeout
                    if self._task_timeout else None)
        link.in_flight[index] = deadline

    @staticmethod
    def _annotate_payload(payload, host_label: str) -> None:
        """Stamp the origin host onto a worker envelope's root spans so
        the spliced trace tree carries (run_id, host, worker_pid)."""
        for item in (payload or {}).get("spans") or ():
            attrs = item.get("attrs") or {}
            attrs["host"] = host_label
            item["attrs"] = attrs

    # -- the map loop ---------------------------------------------------
    def map_tasks(self, fn: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> List[Any]:
        if self._closed:
            raise RuntimeError("remote executor is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        telem = STATE.enabled and not STATE.worker_mode
        with self._in_flight(), span("map_tasks", backend=self.name,
                                     tasks=len(tasks), jobs=self.jobs):
            return self._run(fn, tasks, telem)

    def _run(self, fn, tasks: List[Any], telem: bool) -> List[Any]:
        packed, blobs = pack_tasks(tasks)
        needs = [sorted(manifest_hashes(item)) for item in packed]
        results: List[Any] = [None] * len(tasks)
        completed = [False] * len(tasks)
        n_done = 0
        pending: Deque[int] = deque(range(len(tasks)))
        attempts: Dict[int, int] = {}
        resends: Dict[int, int] = {}
        error: Optional[BaseException] = None
        map_start_stats = dict(self.stats)

        while ((pending and error is None)
               or any(link.in_flight for link in self._links)):
            now = time.monotonic()
            self._reconnect_due(now)
            # Dispatch onto the healthiest hosts first so a flapping
            # peer doesn't burn a task's attempt budget while stable
            # hosts sit idle; ties keep the configured host order (the
            # sort is stable), never the order of port numbers.
            live = sorted((link for link in self._links if link.connected),
                          key=lambda link: link.failures)
            if error is None:
                for link in live:
                    while pending and len(link.in_flight) < link.slots:
                        index = pending.popleft()
                        attempts[index] = attempts.get(index, 0) + 1
                        try:
                            self._dispatch(link, index, fn, packed[index],
                                           needs[index], blobs, telem)
                        except (OSError, FrameError, ConnectionError):
                            # The frame may not have arrived; treat as
                            # an in-flight loss so the attempt counts.
                            link.in_flight[index] = None
                            error = self._host_down(
                                link, pending, attempts, telem) or error
                            break
            waiting = [link for link in self._links
                       if link.connected and link.in_flight]
            if not waiting:
                if not pending or error is not None:
                    if any(link.in_flight for link in self._links):
                        continue
                    break
                if all(link.failures >= MAX_CONNECT_FAILURES
                       for link in self._links):
                    raise RuntimeError(
                        "no remote host reachable after "
                        f"{MAX_CONNECT_FAILURES} connect attempts each: "
                        f"{', '.join(self.host_labels)}")
                retry_in = min(link.next_retry for link in self._links
                               if not link.connected) - time.monotonic()
                time.sleep(min(max(retry_in, 0.0), 0.25) or 0.01)
                continue
            readable, _, _ = select.select(
                [link.sock for link in waiting], [], [], 0.1)
            by_sock = {link.sock: link for link in waiting}
            for sock in readable:
                link = by_sock[sock]
                if not link.connected:
                    continue  # torn down earlier in this sweep
                outcome = self._receive(link, results, completed, pending,
                                        attempts, resends, telem)
                if isinstance(outcome, BaseException):
                    error = error or outcome
                else:
                    n_done += outcome
            if self._task_timeout:
                now = time.monotonic()
                for link in list(waiting):
                    if link.connected and any(
                            deadline is not None and now > deadline
                            for deadline in link.in_flight.values()):
                        emit_event("remote_host_timeout", host=link.label)
                        error = self._host_down(
                            link, pending, attempts, telem) or error

        if error is not None:
            raise error
        emit_event(
            "remote_map", tasks=len(tasks),
            hosts=len(self.connected_hosts),
            task_bytes=self.stats["task_bytes_sent"]
            - map_start_stats["task_bytes_sent"],
            blobs_sent=self.stats["blobs_sent"]
            - map_start_stats["blobs_sent"],
            blob_bytes=self.stats["blob_bytes_sent"]
            - map_start_stats["blob_bytes_sent"],
            dedup_hits=self.stats["blob_dedup_hits"]
            - map_start_stats["blob_dedup_hits"],
            retries=self.stats["retries"] - map_start_stats["retries"],
        )
        return results

    def _receive(self, link: _HostLink, results, completed, pending,
                 attempts, resends, telem: bool):
        """Handle one frame from a host.  Returns the number of newly
        completed tasks, or an exception to surface."""
        try:
            message = check_frame(recv_frame(link.sock), _REPLY_ARITY)
        except (OSError, FrameError, ConnectionError):
            message = None
        if message is None:
            return self._host_down(link, pending, attempts, telem) or 0
        kind = message[0]
        if kind == "result":
            _, index, status, value, payload = message
            link.in_flight.pop(index, None)
            if telem and payload:
                self._annotate_payload(payload, link.label)
                telemetry.absorb_worker_payload(payload)
            if status == "ok":
                if completed[index]:
                    return 0  # stale duplicate after a timeout re-queue
                results[index] = value
                completed[index] = True
                return 1
            return value if isinstance(value, BaseException) else \
                RuntimeError(f"task {index} failed on {link.label}: "
                             f"{value!r}")
        if kind == "need":
            # The host evicted blobs this task references (bounded
            # store); clear them from the dedup ledger and resend.
            _, index, missing = message
            link.in_flight.pop(index, None)
            link.shipped.difference_update(missing)
            resends[index] = resends.get(index, 0) + 1
            if resends[index] > MAX_TASK_ATTEMPTS:
                return RuntimeError(
                    f"task {index} bounced off {link.label} "
                    f"{resends[index]} times (blob store thrashing); "
                    "raise the host's --blob-capacity")
            attempts[index] = max(attempts.get(index, 1) - 1, 0)
            pending.appendleft(index)
            return 0
        return 0  # pong

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Disconnect from every host (idempotent).  Waits first for a
        map_tasks call in flight on another thread.

        Worker hosts are long-lived infrastructure — closing the
        executor ends *this coordinator's session* (a polite ``bye``),
        it does not shut the hosts down.
        """
        if self._closed:
            return
        self._drain()
        self._closed = True
        for link in self._links:
            if link.sock is None:
                continue
            try:
                send_frame(link.sock, ("bye",))
            except (OSError, FrameError, ConnectionError):
                pass
            try:
                link.sock.close()
            except OSError:
                pass
            link.sock = None


# ---------------------------------------------------------------------------
# Worker-host process management (tests, benches, and the CI smoke job
# all boot loopback hosts through this helper).
# ---------------------------------------------------------------------------

class WorkerHostProcess:
    """Handle on a spawned ``repro.runtime.remote_worker`` process."""

    def __init__(self, process: subprocess.Popen,
                 address: Tuple[str, int]):
        self.process = process
        self.address = address
        self.label = f"{address[0]}:{address[1]}"

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill(self) -> None:
        """Hard-kill (the host-death tests' murder weapon)."""
        self.process.kill()
        self.process.wait(timeout=10.0)

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful stop (SIGTERM), escalating to kill."""
        if self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=timeout)

    def __enter__(self) -> "WorkerHostProcess":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def spawn_worker_host(jobs: int = 1, host: str = "127.0.0.1",
                      journal_dir: Optional[str] = None,
                      blob_capacity: Optional[int] = None,
                      env: Optional[Dict[str, str]] = None,
                      startup_timeout: float = 30.0) -> WorkerHostProcess:
    """Launch a loopback worker host on an ephemeral port and wait for
    its "listening on" banner; returns a handle with the bound address.
    """
    command = [sys.executable, "-m", "repro.runtime.remote_worker",
               "--listen", f"{host}:0", "--jobs", str(jobs)]
    if journal_dir is not None:
        command += ["--journal", str(journal_dir)]
    if blob_capacity is not None:
        command += ["--blob-capacity", str(blob_capacity)]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, **(env or {})))
    deadline = time.monotonic() + startup_timeout
    banner = ""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 0.2)
        if ready:
            banner = process.stdout.readline()
            break
        if process.poll() is not None:
            raise RuntimeError(
                f"worker host exited with {process.returncode} "
                "before announcing its port")
    marker = " listening on "
    if marker not in banner:
        process.kill()
        raise RuntimeError(
            f"worker host did not announce its port in "
            f"{startup_timeout}s (got {banner!r})")
    address = banner.split(marker, 1)[1].split()[0]
    bound_host, _, port = address.rpartition(":")
    return WorkerHostProcess(process, (bound_host, int(port)))
