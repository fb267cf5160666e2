"""Long-lived worker-host process for the ``remote`` executor backend.

Run one per machine::

    python -m repro.runtime.remote_worker --listen 0.0.0.0:7070 --jobs 8

The host is a mini-coordinator that replays the ``multiprocessing``
backend locally: blobs pushed by the coordinator are staged once into
a host-owned :class:`~repro.runtime.shm.SharedArena`, the same
content-addressed, LRU-bounded staging store the local pool keeps
(``--blob-capacity`` blobs, kept for the host's lifetime), and the
host submits every task frame, at any ``--jobs``, to the
``multiprocessing`` backend's own pipe-worker pool
(``repro.runtime.executor._WorkerPool``, ``--jobs`` workers, kept for
the host's lifetime).  The host process itself runs no task: it routes
frames and forwards each reply the moment the pool collects it.  A
pool worker runs a task exactly as a local pool worker does:
:func:`~repro.runtime.serialization.unpack_task` rebuilds the task's
plain views from host-local blocks, the task function runs, and the
mappings it opened close once its reply is pickled.  The task
functions and their per-process caches (generate-side model/encoder)
therefore run unchanged, which is what keeps remote output
bit-identical to the serial oracle.

The pool replaces a worker that dies mid-task (a crash, the OOM
killer) and resends its task within its per-task dispatch budget (the
host journals each resend as ``host_worker_death``) before an error
naming the host reaches the coordinator; the host itself stays up.

If the coordinator references a blob the arena has evicted, the host
replies ``("need", index, missing_hashes)`` instead of running the
task; the coordinator re-ships and re-sends.

The host serves one coordinator connection at a time (matching how
``fit`` and ``generate`` each open their own executor) and loops back
to ``accept`` when a session ends, keeping the staged blobs and worker
caches warm across sessions.  A frame that does not decode, does not
match its kind's shape (field count; for a blob, a shape that is not
a tuple of non-negative ints whose product × itemsize is its byte
count), or brings a task while every slot is busy ends only
that session: the host journals ``host_bad_frame`` and accepts the
next coordinator.  No frame stops the host; ``SIGTERM`` does,
gracefully.

Trust model: identical to :mod:`repro.runtime.wire` — frames are
pickles, so bind to loopback or a private network only.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import signal
import socket
import sys
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.journal import RunJournal
from .executor import _WorkerPool, resolve_jobs
from .remote import WIRE_VERSION
from .serialization import manifest_hashes
from .shm import DEFAULT_BLOB_CAPACITY, SharedArena
from .wire import FrameError, check_frame, recv_frame, send_frame

__all__ = ["WorkerHost", "main"]


#: Field count of each coordinator frame kind.
_FRAME_ARITY = {"blob": 5, "task": 5, "bye": 1}


def _blob_array(message: Tuple[Any, ...]) -> Tuple[str, np.ndarray]:
    """The content hash and array of a blob frame; raises
    :class:`FrameError` unless its shape is a tuple of non-negative
    ints whose product × itemsize is the data's byte count."""
    _, content_hash, dtype, shape, data = message
    try:
        dtype = np.dtype(dtype)
        if not (isinstance(content_hash, str) and isinstance(data, bytes)
                and isinstance(shape, tuple)
                and all(type(n) is int and n >= 0 for n in shape)
                and math.prod(shape) * dtype.itemsize == len(data)):
            raise ValueError(f"shape {shape!r} of {dtype.str}")
        return content_hash, np.frombuffer(data, dtype=dtype).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"malformed blob frame: {exc}") from None


class _HostStop(Exception):
    """Raised by the signal handler to unwind blocking socket calls."""


class WorkerHost:
    """One worker-host process: accept loop + a local worker pool."""

    def __init__(self, listen: Tuple[str, int] = ("127.0.0.1", 0),
                 jobs: int = 1,
                 journal_dir: Optional[str] = None,
                 blob_capacity: int = DEFAULT_BLOB_CAPACITY,
                 host_id: Optional[str] = None):
        self.jobs = resolve_jobs(jobs)
        self.host_id = host_id or f"{socket.gethostname()}-{os.getpid()}"
        # Eviction strands only a blob an in-flight task still
        # references; ``need`` heals a later task's miss.
        self.arena = SharedArena(prefix="reprohost", capacity=blob_capacity)
        self.address: Optional[Tuple[str, int]] = None
        self.tasks_run = 0
        self._listen = listen
        self._stop = False
        # True while serving a coordinator session: SIGTERM then defers
        # to the end of the session instead of interrupting mid-frame
        # (see :meth:`request_stop`).
        self._in_session = False
        self._listener: Optional[socket.socket] = None
        # Runs every task frame; spawns its workers on first use.
        self._pool = _WorkerPool(self.jobs, on_retry=self._worker_died,
                                 where=f" on host {self.host_id}")
        # The host writes its own journal shard directly, never through
        # STATE: its forked pool workers use STATE to buffer each task's
        # telemetry for the coordinator.
        self.journal: Optional[RunJournal] = None
        if journal_dir is not None:
            self.journal = RunJournal(journal_dir,
                                      label=f"remote-host-{self.host_id}")

    # -- journaling -----------------------------------------------------
    def _event(self, event_type: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.event(event_type, host=self.host_id,
                               worker_pid=os.getpid(), **fields)

    # -- the pool -------------------------------------------------------
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
        if self._pool.busy >= self.jobs:
            # A coordinator keeps at most ``slots`` tasks in flight.
            raise FrameError(f"task {index} arrived with all {self.jobs} "
                             "slots busy")
        needed = manifest_hashes(packed)
        missing = self.arena.missing(needed)
        if missing:
            send_frame(sock, ("need", index, missing))
            self._event("host_need", task=index, missing=len(missing))
            return
        # Every blob is staged already: stage() copies nothing and
        # marks them recently used.
        blocks = self.arena.stage(dict.fromkeys(needed))
        self._pool.submit(index, pickle.dumps(
            (index, fn, packed, blocks, telem),
            protocol=pickle.HIGHEST_PROTOCOL))

    def _serve_connection(self, sock, peer) -> None:
        """Serve one coordinator session."""
        hello = check_frame(recv_frame(sock), {"hello": 2})
        if hello is None:
            return  # the peer closed before saying hello
        if not isinstance(hello[1], dict):
            raise FrameError("coordinator sent a bad hello")
        info = hello[1]
        if info.get("version") != WIRE_VERSION:
            send_frame(sock, ("hello", {"version": WIRE_VERSION,
                                        "error": "version mismatch"}))
            return
        send_frame(sock, ("hello", {"version": WIRE_VERSION,
                                    "slots": self.jobs,
                                    "pid": os.getpid(),
                                    "host_id": self.host_id}))
        run_id = info.get("run_id")
        self._event("host_connect", peer=f"{peer[0]}:{peer[1]}",
                    coordinator=run_id)
        tasks_before = self.tasks_run
        try:
            while True:
                # With tasks in flight, multiplex the socket against
                # the worker pipes so results stream back the moment
                # they finish.
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
                    content_hash, array = _blob_array(message)
                    stored = bool(self.arena.missing([content_hash]))
                    self.arena.stage({content_hash: array})
                    self._event("host_blob", hash=content_hash[:16],
                                nbytes=array.nbytes, stored=stored)
                elif kind == "task":
                    self._handle_task_frame(sock, message)
                else:  # bye
                    break
        finally:
            # The coordinator left with tasks still running: let them
            # finish and drop their replies, so the pool is clean for
            # the next session.
            while self._pool.busy:
                self._pool.collect()
            self._event("host_disconnect", coordinator=run_id,
                        tasks=self.tasks_run - tasks_before)

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
                    self._serve_connection(sock, peer)
                except FrameError as exc:
                    # A malformed frame ends only this session.
                    self._event("host_bad_frame",
                                peer=f"{peer[0]}:{peer[1]}", error=str(exc))
                except (OSError, ConnectionError, EOFError):
                    pass  # coordinator died; back to accept
                finally:
                    # Shut the connection down, not only this fd: a pool
                    # worker forked during the session holds a copy, so
                    # close() alone would leave the coordinator waiting.
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass  # the coordinator hung up first
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
        self.arena.close()
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
                        help="local worker processes, one task slot "
                             "each (0 = one per CPU)")
    parser.add_argument("--journal", default=None, metavar="DIR",
                        help="write this host's journal shard under DIR "
                             "(merge shards with: python -m "
                             "repro.telemetry report DIR...)")
    parser.add_argument("--blob-capacity", type=int,
                        default=DEFAULT_BLOB_CAPACITY, metavar="N",
                        help="LRU capacity of the content-addressed "
                             "blob arena, in blobs")
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
