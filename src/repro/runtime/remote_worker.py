"""Long-lived worker-host process for the ``remote`` executor backend.

Run one per machine::

    python -m repro.runtime.remote_worker --listen 0.0.0.0:7070 --jobs 8

The host is a mini-coordinator that replays the staged
``multiprocessing`` backend locally: blobs pushed by the coordinator
are staged once into a host-owned :class:`~repro.runtime.shm.
SharedArena` (the :class:`BlobStore`, a bounded LRU keyed by content
hash), and each task frame is rebuilt by :func:`~repro.runtime.
serialization.unpack_task` into exactly the shape the local pool
would have dispatched — ``ArrayRef``/``FrozenState``/``SharedEncodedFlows``
referencing host-local blocks.  The existing task functions and their
per-process caches (frozen-state thaw, generate-side model/encoder)
therefore run unchanged, which is what keeps remote output
bit-identical to the serial oracle.

With ``--jobs > 1`` the host fans tasks out to its own persistent
pipe-worker pool (the same ``_worker_main`` protocol as the
single-machine backends) and streams results back as they complete;
a worker that dies mid-task is respawned and the task retried locally
before the failure is surfaced to the coordinator.

If the coordinator references a blob the store has evicted, the host
replies ``("need", index, missing_hashes)`` instead of running the
task; the coordinator re-ships and re-sends.

The host serves one coordinator connection at a time (matching how
``fit`` and ``generate`` each open their own executor) and loops back
to ``accept`` when a session ends, keeping the blob store and worker
caches warm across sessions.  ``SIGTERM`` stops it gracefully.

Trust model: identical to :mod:`repro.runtime.wire` — frames are
pickles, so bind to loopback or a private network only.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import socket
import sys
from collections import OrderedDict, deque
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..telemetry.journal import RunJournal
from ..telemetry.spans import span
from ..telemetry.state import STATE
from .executor import (MAX_TASK_ATTEMPTS, _close_pool, _pool_context,
                       _spawn_worker, _WorkerHandle, resolve_jobs)
from .remote import WIRE_VERSION
from .serialization import BlobManifest, manifest_hashes, unpack_task
from .shm import ArrayRef, SharedArena
from .wire import FrameError, recv_frame, send_frame

__all__ = ["BlobStore", "WorkerHost", "main", "DEFAULT_BLOB_CAPACITY"]

#: Default LRU capacity of the host blob store, in blobs.  Each model
#: generation contributes a handful of blobs (state + encoded tensors
#: per chunk), so 256 comfortably covers fit + generate working sets;
#: undersizing it degrades to ``need``-triggered re-ships, never to
#: wrong results.
DEFAULT_BLOB_CAPACITY = 256


class BlobStore:
    """Content-addressed blob cache backed by one host-owned arena.

    ``put`` is idempotent per hash (the dedup property the coordinator
    counts on); capacity overflow evicts least-recently-used blobs via
    :meth:`SharedArena.drop`.  Eviction only strands a blob that a
    *concurrently in-flight* task still references — size the capacity
    above the per-map working set; the ``need`` protocol heals the
    cross-map case.
    """

    def __init__(self, capacity: int = DEFAULT_BLOB_CAPACITY):
        self.capacity = max(int(capacity), 1)
        self.arena = SharedArena(prefix="reprohost")
        self._refs: "OrderedDict[str, ArrayRef]" = OrderedDict()
        self.stats = {"stored": 0, "dedup_hits": 0, "evicted": 0}

    def __len__(self) -> int:
        return len(self._refs)

    def put(self, content_hash: str, dtype: str,
            shape: Tuple[int, ...], data: bytes) -> ArrayRef:
        ref = self._refs.get(content_hash)
        if ref is not None:
            self._refs.move_to_end(content_hash)
            self.stats["dedup_hits"] += 1
            return ref
        array = np.frombuffer(data, dtype=np.dtype(dtype)).reshape(shape)
        ref = self.arena.share_array(array)
        self._refs[content_hash] = ref
        self.stats["stored"] += 1
        while len(self._refs) > self.capacity:
            _, evicted = self._refs.popitem(last=False)
            self.arena.drop(evicted)
            self.stats["evicted"] += 1
        return ref

    def resolve(self, manifest: BlobManifest) -> ArrayRef:
        ref = self._refs[manifest.content_hash]
        self._refs.move_to_end(manifest.content_hash)
        return ref

    def missing(self, hashes) -> List[str]:
        return sorted(h for h in hashes if h not in self._refs)

    def close(self) -> None:
        self._refs.clear()
        self.arena.close()


class _HostStop(Exception):
    """Raised by the signal handler to unwind blocking socket calls."""


class WorkerHost:
    """One worker-host process: accept loop + local task execution."""

    def __init__(self, listen: Tuple[str, int] = ("127.0.0.1", 0),
                 jobs: int = 1,
                 journal_dir: Optional[str] = None,
                 blob_capacity: int = DEFAULT_BLOB_CAPACITY,
                 host_id: Optional[str] = None):
        self.jobs = resolve_jobs(jobs)
        self.host_id = host_id or f"{socket.gethostname()}-{os.getpid()}"
        self.store = BlobStore(blob_capacity)
        self.address: Optional[Tuple[str, int]] = None
        self.tasks_run = 0
        self._listen = listen
        self._stop = False
        # True while serving a coordinator session: SIGTERM then defers
        # to the end of the session instead of interrupting mid-frame
        # (see :meth:`request_stop`).
        self._in_session = False
        self._listener: Optional[socket.socket] = None
        # Host-side pipe-worker pool (only with --jobs > 1); reuses the
        # single-machine worker protocol wholesale.
        self._ctx = _pool_context()
        self._workers: List[_WorkerHandle] = []
        self._idle: Deque[_WorkerHandle] = deque()
        # worker conn -> (worker, index, fn, task, telem, attempts)
        self._busy: Dict[Any, Tuple[Any, ...]] = {}
        # The host writes its own journal shard directly (never through
        # STATE: task execution switches STATE into worker mode, which
        # nulls STATE.journal by design).
        self.journal: Optional[RunJournal] = None
        if journal_dir is not None:
            self.journal = RunJournal(journal_dir,
                                      label=f"remote-host-{self.host_id}")

    # -- journaling -----------------------------------------------------
    def _event(self, event_type: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.event(event_type, host=self.host_id,
                               worker_pid=os.getpid(), **fields)

    # -- local execution ------------------------------------------------
    def _execute_inline(self, index: int, fn, task, telem: bool
                        ) -> Tuple[str, Any, Optional[Dict[str, Any]]]:
        """Run one task in-process (the --jobs 1 path), producing the
        same (status, value, payload) envelope as a pipe worker."""
        payload = None
        if telem:
            telemetry.begin_worker_task(index)
        try:
            if telem:
                with span("task", index=index,
                          fn=getattr(fn, "__name__", str(fn))):
                    value = fn(task)
                STATE.registry.counter("runtime.tasks_completed").inc()
                payload = telemetry.export_worker_payload()
            else:
                value = fn(task)
            return "ok", value, payload
        except BaseException as exc:  # noqa: BLE001 - shipped back
            if telem:
                payload = telemetry.export_worker_payload()
            try:
                pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            return "error", exc, payload

    def _spawn_worker(self) -> _WorkerHandle:
        worker = _spawn_worker(self._ctx)
        self._workers.append(worker)
        return worker

    def _discard_worker(self, worker: _WorkerHandle) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _dispatch_local(self, index: int, fn, task, telem: bool,
                        attempts: int = 1) -> Optional[Tuple[str, Any]]:
        """Hand a task to an idle pool worker.  Returns an error
        envelope only when the task's local attempt budget is spent."""
        while True:
            if not self._idle:
                if len(self._workers) < self.jobs:
                    self._idle.append(self._spawn_worker())
                else:  # pragma: no cover - coordinator respects slots
                    raise RuntimeError("no idle worker for dispatch")
            worker = self._idle.popleft()
            blob = pickle.dumps((index, fn, task, telem),
                                protocol=pickle.HIGHEST_PROTOCOL)
            try:
                worker.conn.send_bytes(blob)
            except (BrokenPipeError, OSError):
                self._discard_worker(worker)
                if attempts >= MAX_TASK_ATTEMPTS:
                    return ("error", RuntimeError(
                        f"task {index} could not be dispatched after "
                        f"{MAX_TASK_ATTEMPTS} attempts on host "
                        f"{self.host_id}"))
                attempts += 1
                continue
            self._busy[worker.conn] = (worker, index, fn, task, telem,
                                       attempts)
            return None

    def _reap_worker_reply(self, conn, sock) -> None:
        """Forward one pool-worker reply to the coordinator (or retry
        locally if the worker died mid-task)."""
        worker, index, fn, task, telem, attempts = self._busy.pop(conn)
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            pid = worker.process.pid
            self._discard_worker(worker)
            self._event("host_worker_death", task=index, pid=pid,
                        attempt=attempts)
            if attempts >= MAX_TASK_ATTEMPTS:
                send_frame(sock, ("result", index, "error", RuntimeError(
                    f"task {index} failed {MAX_TASK_ATTEMPTS} times on "
                    f"host {self.host_id}: worker died (last pid {pid})"),
                    None))
                return
            failure = self._dispatch_local(index, fn, task, telem,
                                           attempts + 1)
            if failure is not None:
                send_frame(sock, ("result", index) + failure + (None,))
            return
        _, status, value, payload = reply
        self._idle.append(worker)
        self.tasks_run += 1
        send_frame(sock, ("result", index, status, value, payload))
        self._event("host_task", task=index, status=status,
                    pool_pid=worker.process.pid)

    def _drain_busy(self) -> None:
        """Coordinator left with tasks still running: let them finish
        and drop the results, so the pool is clean for the next one."""
        while self._busy:
            for conn in _conn_wait(list(self._busy)):
                worker = self._busy.pop(conn)[0]
                try:
                    conn.recv()
                except (EOFError, OSError):
                    self._discard_worker(worker)
                    continue
                self._idle.append(worker)

    # -- protocol -------------------------------------------------------
    def _handle_task_frame(self, sock, message) -> None:
        _, index, fn, packed, telem = message
        missing = self.store.missing(manifest_hashes(packed))
        if missing:
            send_frame(sock, ("need", index, missing))
            self._event("host_need", task=index, missing=len(missing))
            return
        task = unpack_task(packed, self.store.resolve)
        if self.jobs <= 1:
            status, value, payload = self._execute_inline(
                index, fn, task, telem)
            self.tasks_run += 1
            send_frame(sock, ("result", index, status, value, payload))
            self._event("host_task", task=index, status=status)
            return
        failure = self._dispatch_local(index, fn, task, telem)
        if failure is not None:
            send_frame(sock, ("result", index) + failure + (None,))

    def _serve_connection(self, sock, peer) -> bool:
        """Serve one coordinator session.  Returns False when the
        session asked the whole host to shut down."""
        hello = recv_frame(sock)
        if (not isinstance(hello, tuple) or len(hello) != 2
                or hello[0] != "hello"):
            raise FrameError(f"coordinator sent a bad hello: {hello!r}")
        info = hello[1]
        if info.get("version") != WIRE_VERSION:
            send_frame(sock, ("hello", {"version": WIRE_VERSION,
                                        "error": "version mismatch"}))
            return True
        send_frame(sock, ("hello", {"version": WIRE_VERSION,
                                    "slots": self.jobs,
                                    "pid": os.getpid(),
                                    "host_id": self.host_id}))
        run_id = info.get("run_id")
        self._event("host_connect", peer=f"{peer[0]}:{peer[1]}",
                    coordinator=run_id)
        tasks_before = self.tasks_run
        keep_serving = True
        try:
            while True:
                # With pool tasks in flight, multiplex the socket
                # against the worker pipes so results stream back the
                # moment they finish.
                if self._busy:
                    ready = _conn_wait([sock] + list(self._busy))
                    for item in ready:
                        if item is not sock:
                            self._reap_worker_reply(item, sock)
                    if sock not in ready:
                        continue
                try:
                    message = recv_frame(sock)
                except (OSError, FrameError, ConnectionError):
                    message = None
                if message is None:
                    break
                kind = message[0]
                if kind == "blob":
                    _, content_hash, dtype, shape, data = message
                    before = len(self.store)
                    self.store.put(content_hash, dtype, shape, data)
                    self._event("host_blob", hash=content_hash[:16],
                                nbytes=len(data),
                                stored=len(self.store) > before)
                elif kind == "task":
                    self._handle_task_frame(sock, message)
                elif kind == "ping":
                    send_frame(sock, ("pong",))
                elif kind == "bye":
                    break
                elif kind == "shutdown":
                    keep_serving = False
                    break
                else:
                    raise FrameError(f"unexpected frame {kind!r}")
        finally:
            self._drain_busy()
            self._event("host_disconnect", coordinator=run_id,
                        tasks=self.tasks_run - tasks_before)
        return keep_serving

    # -- lifecycle ------------------------------------------------------
    def serve_forever(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._listen)
        listener.listen(4)
        listener.settimeout(0.5)  # poll the stop flag between accepts
        self._listener = listener
        self.address = listener.getsockname()[:2]
        print(f"repro.remote_worker listening on "
              f"{self.address[0]}:{self.address[1]} slots={self.jobs}",
              flush=True)
        self._event("host_start", listen=f"{self.address[0]}:"
                    f"{self.address[1]}", slots=self.jobs)
        try:
            while not self._stop:
                try:
                    sock, peer = listener.accept()
                except socket.timeout:
                    continue
                sock.settimeout(None)  # sessions idle between maps
                self._in_session = True
                try:
                    if not self._serve_connection(sock, peer):
                        self._stop = True
                except (OSError, FrameError, ConnectionError, EOFError):
                    pass  # coordinator died; back to accept
                finally:
                    try:
                        sock.close()
                    except OSError:
                        pass
                    self._in_session = False
        except _HostStop:
            pass
        finally:
            self.close()

    def stop(self) -> None:
        self._stop = True

    def request_stop(self) -> None:
        """Signal-safe stop: mid-session, only flag the stop (the host
        finishes the session — in particular its journal writes — and
        exits from the accept loop); when idle in ``accept``, raise
        :class:`_HostStop` to unwind the blocking call immediately."""
        self._stop = True
        if not self._in_session:
            raise _HostStop()

    def close(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        _close_pool(self._workers)
        self._idle.clear()
        self._busy.clear()
        self.store.close()
        self._event("host_stop", tasks=self.tasks_run)
        if self.journal is not None:
            self.journal.close()
            self.journal = None


def _parse_listen(text: str) -> Tuple[str, int]:
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"--listen expects HOST:PORT, got {text!r}")
    return host, int(port)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.remote_worker",
        description="Long-lived worker host for the remote executor "
                    "backend (trusted networks only; frames are "
                    "pickles).")
    parser.add_argument("--listen", type=_parse_listen,
                        default=("127.0.0.1", 0), metavar="HOST:PORT",
                        help="bind address (port 0 = ephemeral; the "
                             "bound port is printed on stdout)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="local worker processes (0 = one per CPU; "
                             "1 = run tasks inline)")
    parser.add_argument("--journal", default=None, metavar="DIR",
                        help="write this host's journal shard under DIR "
                             "(merge shards with: python -m "
                             "repro.telemetry report DIR...)")
    parser.add_argument("--blob-capacity", type=int,
                        default=DEFAULT_BLOB_CAPACITY, metavar="N",
                        help="LRU capacity of the content-addressed "
                             "blob store, in blobs")
    parser.add_argument("--host-id", default=None,
                        help="label for journal events and diagnostics "
                             "(default: hostname-pid)")
    options = parser.parse_args(argv)
    host = WorkerHost(listen=options.listen, jobs=options.jobs,
                      journal_dir=options.journal,
                      blob_capacity=options.blob_capacity,
                      host_id=options.host_id)

    def _on_term(signum, frame):
        host.request_stop()

    signal.signal(signal.SIGTERM, _on_term)
    try:
        host.serve_forever()
    except KeyboardInterrupt:
        host.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
