"""Long-lived worker-host process for the ``remote`` executor backend.

Run one per machine::

    python -m repro.runtime.remote_worker --listen 0.0.0.0:7070 --jobs 8

The host is a mini-coordinator that replays the ``multiprocessing``
backend locally: blobs pushed by the coordinator are staged once into
a host-owned :class:`~repro.runtime.shm.SharedArena` (the
:class:`BlobStore`, a bounded LRU keyed by content hash), and each
task frame runs through the same worker-side
:func:`~repro.runtime.executor.run_packed` path as a local pool
worker: :func:`~repro.runtime.serialization.unpack_task` rebuilds the
task's plain views from host-local blocks, the task function runs,
and the mappings it opened close once its reply is pickled.  The task
functions and their per-process caches (frozen-state thaw,
generate-side model/encoder) therefore run unchanged, which is what
keeps remote output bit-identical to the serial oracle.

With ``--jobs > 1`` the host submits each task frame to the
``multiprocessing`` backend's own pipe-worker pool
(``repro.runtime.executor._WorkerPool``), kept for the host's
lifetime, and forwards each reply the moment the pool collects it.
The pool replaces a worker that dies mid-task and resends its task
within its per-task dispatch budget (the host journals each resend as
``host_worker_death``) before an error naming the host reaches the
coordinator.

If the coordinator references a blob the store has evicted, the host
replies ``("need", index, missing_hashes)`` instead of running the
task; the coordinator re-ships and re-sends.

The host serves one coordinator connection at a time (matching how
``fit`` and ``generate`` each open their own executor) and loops back
to ``accept`` when a session ends, keeping the blob store and worker
caches warm across sessions.  A frame that does not decode, or does
not match its kind's shape (field count, a blob's byte count against
its shape and dtype), ends only that session: the host journals
``host_bad_frame`` and accepts the next coordinator.  ``SIGTERM``
stops it gracefully.

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
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.journal import RunJournal
from .executor import _WorkerPool, resolve_jobs, run_packed
from .remote import WIRE_VERSION
from .serialization import manifest_hashes
from .shm import ArrayRef, SharedArena
from .wire import FrameError, check_frame, recv_frame, send_frame

__all__ = ["BlobStore", "WorkerHost", "main", "DEFAULT_BLOB_CAPACITY"]

#: Default LRU capacity of the host blob store, in blobs.  Each model
#: generation contributes a handful of blobs (state + encoded tensors
#: per chunk), so 256 comfortably covers fit + generate working sets;
#: undersizing it degrades to ``need``-triggered re-ships, never to
#: wrong results.
DEFAULT_BLOB_CAPACITY = 256


#: Field count of each coordinator frame kind.
_FRAME_ARITY = {"blob": 5, "task": 5, "ping": 1, "bye": 1, "shutdown": 1}


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
        """Store one blob; raises :class:`FrameError` unless ``data``
        holds exactly shape × itemsize bytes of a valid dtype."""
        ref = self._refs.get(content_hash)
        if ref is not None:
            self._refs.move_to_end(content_hash)
            self.stats["dedup_hits"] += 1
            return ref
        try:
            array = np.frombuffer(data, dtype=np.dtype(dtype)).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise FrameError(f"blob {content_hash[:16]} does not match its "
                             f"shape and dtype: {exc}") from None
        ref = self.arena.share_array(array)
        self._refs[content_hash] = ref
        self.stats["stored"] += 1
        while len(self._refs) > self.capacity:
            _, evicted = self._refs.popitem(last=False)
            self.arena.drop(evicted)
            self.stats["evicted"] += 1
        return ref

    def block_names(self, hashes) -> Dict[str, str]:
        """Block name per content hash (marks each as recently used)."""
        for content_hash in hashes:
            self._refs.move_to_end(content_hash)
        return {h: self._refs[h].name for h in hashes}

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
        # Used only with --jobs > 1; spawns its workers on first use.
        self._pool = _WorkerPool(self.jobs, on_retry=self._worker_died,
                                 where=f" on host {self.host_id}")
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
    def _worker_died(self, index: int, attempt: int, pid: int) -> None:
        self._event("host_worker_death", task=index, pid=pid,
                    attempt=attempt)

    def _forward(self, sock, replies) -> None:
        """Send each collected pool reply to the coordinator."""
        for pid, (index, status, value, payload) in replies:
            self.tasks_run += 1
            send_frame(sock, ("result", index, status, value, payload))
            self._event("host_task", task=index, status=status,
                        pool_pid=pid)

    # -- protocol -------------------------------------------------------
    def _handle_task_frame(self, sock, message) -> None:
        _, index, fn, packed, telem = message
        needed = manifest_hashes(packed)
        missing = self.store.missing(needed)
        if missing:
            send_frame(sock, ("need", index, missing))
            self._event("host_need", task=index, missing=len(missing))
            return
        blocks = self.store.block_names(needed)
        if self.jobs > 1:
            self._pool.submit(index, pickle.dumps(
                (index, fn, packed, blocks, telem),
                protocol=pickle.HIGHEST_PROTOCOL))
            return

        def reply(envelope: Tuple[Any, ...]) -> str:
            send_frame(sock, ("result",) + envelope)
            return envelope[1]

        status = run_packed(index, fn, packed, blocks, telem, reply)
        self.tasks_run += 1
        self._event("host_task", task=index, status=status)

    def _serve_connection(self, sock, peer) -> bool:
        """Serve one coordinator session.  Returns False when the
        session asked the whole host to shut down."""
        hello = check_frame(recv_frame(sock), {"hello": 2})
        if hello is None:
            return True  # the peer closed before saying hello
        if not isinstance(hello[1], dict):
            raise FrameError("coordinator sent a bad hello")
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
                if self._pool.busy:
                    replies, ready = self._pool.collect(sock)
                    self._forward(sock, replies)
                    if not ready:
                        continue
                message = check_frame(recv_frame(sock), _FRAME_ARITY)
                if message is None:
                    break
                kind = message[0]
                if kind == "blob":
                    _, content_hash, dtype, shape, data = message
                    if not (isinstance(content_hash, str)
                            and isinstance(data, bytes)):
                        raise FrameError("malformed blob frame")
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
                else:  # shutdown
                    keep_serving = False
                    break
        finally:
            # The coordinator left with tasks still running: let them
            # finish and drop their replies, so the pool is clean for
            # the next session.
            while self._pool.busy:
                self._pool.collect()
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
                except FrameError as exc:
                    # A malformed frame ends only this session.
                    self._event("host_bad_frame",
                                peer=f"{peer[0]}:{peer[1]}", error=str(exc))
                except (OSError, ConnectionError, EOFError):
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
        self._pool.close()
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
