"""Wire protocol for the ``repro.serve`` daemon.

Line-delimited JSON over a stream socket: every request and every
response is one JSON object terminated by ``\\n``, so the protocol
needs nothing beyond the stdlib and is trivially scriptable
(``echo '{"op": "healthz"}' | nc host port``).  A connection is
persistent — a client may send any number of requests and reads one
response per request, in order.

Requests carry an ``op``:

* ``generate`` — ``{"op": "generate", "model": name, "n_records": N,
  "seed": S, "client_id": ID}``, with ``1 <= N <= MAX_RECORDS``.  The
  daemon derives the effective generation seed with
  :func:`derive_client_seed`, so distinct clients sharing a request
  seed still draw independent streams, and any client can reproduce
  its stream offline:
  ``NetShare.generate(N, seed=derive_client_seed(ID, S))`` is
  bit-identical to the served trace.
* ``metrics`` / ``healthz`` / ``models`` — answered inline (never
  queued), fed by :func:`repro.telemetry.metrics_snapshot`.

Responses carry a ``status``: ``ok``, ``error`` (with ``message``), or
``overloaded`` (admission control; carries ``retry_after`` seconds the
client should wait before retrying, :data:`RETRY_AFTER` from the
daemon — honoured by :class:`~repro.serve.client.ServeClient`).

Traces travel as column dicts (:func:`trace_to_payload` /
:func:`payload_to_trace`).  JSON float round-tripping uses ``repr``
semantics, which is exact for IEEE-754 doubles, so a decoded trace is
bit-identical to the one the daemon generated — the offline-parity
gate in ``BENCH_serve.json`` rests on this.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Union

import numpy as np

from ..datasets.records import FlowTrace, PacketTrace

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "MAX_RECORDS",
    "RETRY_AFTER",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_OVERLOADED",
    "encode_message",
    "decode_message",
    "read_message",
    "ok_response",
    "error_response",
    "overloaded_response",
    "trace_to_payload",
    "payload_to_trace",
    "derive_client_seed",
    "ProtocolError",
]

PROTOCOL_VERSION = 1

#: Upper bound on one protocol line.  Traces are column lists, so a
#: 100k-record flow response is ~20 MB of JSON; the cap exists to bound
#: a malicious/corrupt peer, not to constrain honest traffic.
MAX_LINE_BYTES = 128 * 1024 * 1024

#: The most records one ``generate`` request may ask for: its response
#: must fit in ``MAX_LINE_BYTES``, budgeting 256 JSON bytes a record, a
#: 3x margin over generated traces (81.5-84.8 bytes a UGR16 flow record,
#: 72.4-76.0 a CAIDA packet record, at 100-10,000 records).
MAX_RECORDS = MAX_LINE_BYTES // 256

#: Seconds an ``overloaded`` response asks the client to back off.
RETRY_AFTER = 0.25

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_OVERLOADED = "overloaded"

#: Column dtypes per trace kind — the decode side coerces through
#: these, mirroring each trace dataclass's ``__post_init__``.
_TRACE_KINDS = {"netflow": FlowTrace, "pcap": PacketTrace}


class ProtocolError(ValueError):
    """A malformed frame (bad JSON, missing fields, oversize line)."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize one protocol message to a newline-terminated frame."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: Union[bytes, str]) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds MAX_LINE_BYTES")
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("protocol messages must be JSON objects")
    return message


def read_message(stream) -> Optional[Dict[str, Any]]:
    """Read one frame from a buffered binary stream (``socket.makefile``).

    Returns ``None`` on a clean EOF (peer closed the connection).
    """
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("frame exceeds MAX_LINE_BYTES")
    return decode_message(line)


def ok_response(**fields: Any) -> Dict[str, Any]:
    return {"status": STATUS_OK, "version": PROTOCOL_VERSION, **fields}


def error_response(message: str, **fields: Any) -> Dict[str, Any]:
    return {"status": STATUS_ERROR, "version": PROTOCOL_VERSION,
            "message": message, **fields}


def overloaded_response(retry_after: float, **fields: Any) -> Dict[str, Any]:
    """Admission-control rejection: the client should back off
    ``retry_after`` seconds and retry."""
    return {"status": STATUS_OVERLOADED, "version": PROTOCOL_VERSION,
            "retry_after": float(retry_after), **fields}


def trace_to_payload(trace: Union[FlowTrace, PacketTrace]) -> Dict[str, Any]:
    """Columnar trace -> JSON-able payload (exact float round-trip)."""
    kind = "netflow" if isinstance(trace, FlowTrace) else "pcap"
    return {
        "kind": kind,
        "records": len(trace),
        "columns": {name: column.tolist()
                    for name, column in trace._columns().items()},
    }


def payload_to_trace(payload: Dict[str, Any]) -> Union[FlowTrace, PacketTrace]:
    """Rebuild the columnar trace a daemon serialized.

    The trace dataclasses coerce every column to its canonical dtype in
    ``__post_init__``, so the rebuilt trace is bit-identical to the
    generated one.
    """
    kind = payload.get("kind")
    cls = _TRACE_KINDS.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown trace kind {kind!r}")
    columns = payload.get("columns")
    if not isinstance(columns, dict):
        raise ProtocolError("trace payload has no columns")
    return cls(**{name: np.asarray(values)
                  for name, values in columns.items()})


def derive_client_seed(client_id: str, seed: int) -> int:
    """Namespace a request seed by client identity.

    Hash-based (sha256, not Python's randomized ``hash``) so the
    derivation is stable across processes, machines, and runs: the
    daemon and an offline ``NetShare.generate`` agree on the effective
    seed forever.  Distinct clients sharing a request seed get
    independent streams; the same client always gets the same stream
    back (served results are cacheable and auditable).
    """
    digest = hashlib.sha256(
        f"{client_id}\x00{int(seed)}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)
