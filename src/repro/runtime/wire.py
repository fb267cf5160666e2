"""Length-prefixed socket framing for the remote executor.

The coordinator and the worker hosts speak a binary frame protocol in
the same spirit as :mod:`repro.serve.protocol`'s line-delimited JSON,
but carrying pickled python objects (task dataclasses, numpy blobs)
instead of JSON documents: each frame is an 8-byte big-endian payload
length followed by exactly that many pickle bytes.  ``recv_frame``
distinguishes a *clean* EOF (peer closed between frames — ``None``)
from a *torn* one (connection died mid-frame — ``FrameError``), which
is what lets the coordinator treat host death precisely.

Security model: frames are unpickled, so this protocol is for
**trusted worker hosts on a private network or loopback** — exactly
like the pipe protocol it generalizes, which pickles into worker
process pipes.  It must never be exposed to untrusted peers.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Mapping, Optional, Tuple

__all__ = ["FrameError", "send_frame", "recv_frame", "check_frame",
           "MAX_FRAME_BYTES"]

#: Upper bound on one frame's payload: a desynchronized or hostile
#: stream must not make us allocate an arbitrary buffer.  Generous
#: enough for a full model-state blob at production scale.
MAX_FRAME_BYTES = 1 << 32

_HEADER = struct.Struct(">Q")


class FrameError(ConnectionError):
    """The stream ended or desynchronized mid-frame, or a frame does
    not decode to a message of the protocol."""


def send_frame(sock, obj: Any) -> int:
    """Pickle ``obj`` and write one length-prefixed frame.

    Returns the payload byte count (the number the dispatch-byte
    telemetry records).  Raises ``OSError``/``BrokenPipeError`` when
    the peer is gone — callers translate that into their fault model.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    sock.sendall(_HEADER.pack(len(payload)) + payload)
    return len(payload)


def _recv_exact(sock, n: int) -> Tuple[bytes, bool]:
    """Read exactly ``n`` bytes; returns ``(data, clean)`` where a
    short read reports whether *zero* bytes arrived (clean EOF)."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return b"".join(chunks), not chunks
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks), False


def recv_frame(sock) -> Optional[Any]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameError` on a torn frame, an implausible header
    or a payload that does not unpickle, ``OSError`` (including
    ``socket.timeout``) on transport failure — all mean the peer is
    unusable.
    """
    header, clean = _recv_exact(sock, _HEADER.size)
    if len(header) < _HEADER.size:
        if clean:
            return None
        raise FrameError("connection closed mid-header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame header claims {length} bytes (> MAX_FRAME_BYTES); "
            "stream desynchronized")
    payload, _ = _recv_exact(sock, length)
    if len(payload) < length:
        raise FrameError("connection closed mid-frame")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"undecodable frame: {exc!r}") from None


def check_frame(message: Any, arity: Mapping[str, int]) -> Any:
    """Return a decoded frame if it is a tuple whose first field names
    a kind in ``arity`` with exactly that many fields; ``None`` (clean
    EOF) passes through.  Raises :class:`FrameError` otherwise."""
    if message is None:
        return None
    if not (isinstance(message, tuple) and message
            and isinstance(message[0], str)
            and arity.get(message[0]) == len(message)):
        raise FrameError(f"malformed frame: {message!r:.80}")
    return message
