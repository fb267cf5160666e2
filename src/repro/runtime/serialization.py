"""Serialization for the runtime: ``.npz`` persistence and the remote
task-manifest layer.

**Persistence** — a model's state is a nested dict whose leaves are
either numpy arrays (weights, quantile tables, embedding matrices) or
plain JSON-able values (config scalars, vocab lists, flags).
``save_state_npz`` flattens it into a single ``.npz``: array leaves
become npz entries keyed by their ``/``-joined path; everything else
is gathered into one JSON document stored under ``__meta__``.
``load_state_npz`` reverses the mapping exactly.  Keys must not
contain ``/`` (the path separator); parameter names use ``.`` so this
never collides in practice.

**Task manifests** — the remote executor cannot ship
:class:`~repro.runtime.shm.ArrayRef`/:class:`~repro.runtime.
chunk_tasks.FrozenState` handles to another machine (shared-memory
names are host-local), so :func:`pack_tasks` rewrites each task into a
wire shape: every bulk payload becomes a content-hash-keyed
:class:`BlobManifest` (wrapped in :class:`ArrayManifest` /
:class:`StateManifest` / :class:`EncodedManifest` so the receiver
knows which runtime type to rebuild) and the blob bytes travel in a
side table, deduplicated by hash — N tasks referencing one model
state produce one blob.  On the worker host, :func:`unpack_task`
resolves each manifest against the host's own ``SharedArena`` and
rebuilds the task in exactly the local pool's staged shape
(``ArrayRef``/``FrozenState``/``SharedEncodedFlows``), so the existing
task functions, thaw caches, and local worker pools run unchanged —
which is what keeps remote output bit-identical to serial.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from ..core.flow_encoder import EncodedFlows
from .chunk_tasks import FrozenState
from .shm import ArrayRef, SharedEncodedFlows, attach_array

__all__ = ["flatten_state", "unflatten_state", "save_state_npz",
           "load_state_npz", "BlobManifest", "ArrayManifest",
           "StateManifest", "EncodedManifest", "pack_tasks",
           "unpack_task", "manifest_hashes"]

_META_KEY = "__meta__"
_SEP = "/"


def flatten_state(state: Dict[str, Any]):
    """Split a nested dict into (flat array dict, nested JSON-able meta)."""
    arrays: Dict[str, np.ndarray] = {}
    meta: Dict[str, Any] = {}

    def walk(node: Dict[str, Any], path: str, meta_node: Dict[str, Any]):
        for key, value in node.items():
            key = str(key)
            if _SEP in key:
                raise ValueError(f"state key {key!r} contains {_SEP!r}")
            full = f"{path}{_SEP}{key}" if path else key
            if isinstance(value, dict):
                child: Dict[str, Any] = {}
                meta_node[key] = child
                walk(value, full, child)
            elif isinstance(value, np.ndarray):
                arrays[full] = value
            else:
                meta_node[key] = _jsonable(value, full)
    walk(state, "", meta)
    return arrays, meta


def _jsonable(value: Any, path: str) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, tuple):
        value = list(value)
    if isinstance(value, list):
        return [_jsonable(v, path) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(
        f"state leaf {path!r} of type {type(value).__name__} is neither "
        "a numpy array nor JSON-able")


def unflatten_state(arrays: Dict[str, np.ndarray],
                    meta: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild the nested state dict from flat arrays + meta tree."""
    state = json.loads(json.dumps(meta))  # deep copy, plain types
    for full, value in arrays.items():
        node = state
        parts = full.split(_SEP)
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return state


def save_state_npz(path, state: Dict[str, Any]) -> None:
    """Persist a nested state dict to a single compressed ``.npz``."""
    arrays, meta = flatten_state(state)
    if _META_KEY in arrays:
        raise ValueError(f"{_META_KEY!r} is a reserved key")
    np.savez_compressed(
        path, **arrays, **{_META_KEY: np.array(json.dumps(meta))})


def load_state_npz(path) -> Dict[str, Any]:
    """Load a state dict written by :func:`save_state_npz`."""
    with np.load(path, allow_pickle=False) as payload:
        if _META_KEY not in payload.files:
            raise ValueError(f"{path} is not a repro state file "
                             f"(missing {_META_KEY!r})")
        meta = json.loads(str(payload[_META_KEY]))
        arrays = {name: payload[name] for name in payload.files
                  if name != _META_KEY}
    return unflatten_state(arrays, meta)


# ---------------------------------------------------------------------------
# Remote task manifests: the wire shape of a task's bulk payloads.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlobManifest:
    """Content-addressed descriptor of one bulk payload.

    ``content_hash`` keys the per-host dedup ledger (a blob crosses
    the wire at most once per host per content) and the host's blob
    store; shape/dtype let the receiver rebuild the typed view without
    any task context.  All fields are hash-stable primitives so the
    manifest itself pickles into a few dozen bytes.
    """

    content_hash: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize
                   * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class ArrayManifest:
    """Wire replacement for an :class:`ArrayRef` task field."""

    blob: BlobManifest


@dataclass(frozen=True)
class StateManifest:
    """Wire replacement for a :class:`FrozenState` task field (the
    blob holds the pickled state bytes; its hash *is* the frozen
    state's content hash, so worker-side thaw caches stay warm)."""

    blob: BlobManifest


@dataclass(frozen=True)
class EncodedManifest:
    """Wire replacement for a ``SharedEncodedFlows``/``EncodedFlows``
    task field: three typed blobs, one per tensor."""

    metadata: BlobManifest
    measurements: BlobManifest
    gen_flags: BlobManifest


def _hash_array(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(repr(tuple(array.shape)).encode("ascii"))
    digest.update(np.ascontiguousarray(array).data)
    return digest.hexdigest()


def _blob_for(array: np.ndarray, blobs: Dict[str, np.ndarray],
              content_hash: "str | None" = None) -> BlobManifest:
    array = np.ascontiguousarray(array)
    digest = content_hash if content_hash is not None else _hash_array(array)
    blobs.setdefault(digest, array)
    return BlobManifest(content_hash=digest, shape=tuple(array.shape),
                        dtype=array.dtype.str)


def _pack_value(value: Any, blobs: Dict[str, np.ndarray],
                memo: Dict[int, Any]) -> Any:
    packed = memo.get(id(value))
    if packed is not None:
        return packed
    if isinstance(value, FrozenState):
        payload = value.payload
        if isinstance(payload, ArrayRef):
            data = attach_array(payload)
        else:
            data = np.frombuffer(payload, dtype=np.uint8)
        packed = StateManifest(blob=_blob_for(
            data, blobs, content_hash=value.content_hash))
    elif isinstance(value, ArrayRef):
        packed = ArrayManifest(blob=_blob_for(attach_array(value), blobs))
    elif isinstance(value, (SharedEncodedFlows, EncodedFlows)):
        encoded = (value.materialize()
                   if isinstance(value, SharedEncodedFlows) else value)
        packed = EncodedManifest(
            metadata=_blob_for(encoded.metadata, blobs),
            measurements=_blob_for(encoded.measurements, blobs),
            gen_flags=_blob_for(encoded.gen_flags, blobs),
        )
    elif is_dataclass(value) and not isinstance(value, type):
        changed = {}
        for field_info in fields(value):
            old = getattr(value, field_info.name)
            new = _pack_value(old, blobs, memo)
            if new is not old:
                changed[field_info.name] = new
        packed = replace(value, **changed) if changed else value
    elif isinstance(value, dict):
        items = {k: _pack_value(v, blobs, memo) for k, v in value.items()}
        packed = (items if any(items[k] is not value[k] for k in items)
                  else value)
    elif isinstance(value, (list, tuple)):
        items = [_pack_value(v, blobs, memo) for v in value]
        packed = (type(value)(items)
                  if any(a is not b for a, b in zip(items, value))
                  else value)
    else:
        return value
    memo[id(value)] = packed
    return packed


def pack_tasks(tasks: Sequence[Any]
               ) -> Tuple[List[Any], Dict[str, np.ndarray]]:
    """Rewrite tasks into wire shape; return ``(packed, blob table)``.

    The blob table maps content hash to the typed array holding the
    payload bytes.  Values staged in a ``SharedArena`` are returned as
    zero-copy views, so the table stays valid only while the arena is
    open — which holds for the remote executor's use (packing and
    shipping both happen inside the caller's ``map_tasks`` window).
    A ``FrozenState``/``ArrayRef`` instance shared by many tasks is
    hashed and tabled once (identity-memoized within a call).
    """
    blobs: Dict[str, np.ndarray] = {}
    memo: Dict[int, Any] = {}
    return [_pack_value(task, blobs, memo) for task in tasks], blobs


def manifest_hashes(packed_task: Any) -> Set[str]:
    """Every blob hash a packed task references (dispatch dedup and
    the host-side availability check both walk this)."""
    needed: Set[str] = set()

    def walk(value: Any) -> None:
        if isinstance(value, BlobManifest):
            needed.add(value.content_hash)
        elif is_dataclass(value) and not isinstance(value, type):
            for field_info in fields(value):
                walk(getattr(value, field_info.name))
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(packed_task)
    return needed


def unpack_task(packed_task: Any,
                resolve: Callable[[BlobManifest], ArrayRef]) -> Any:
    """Rebuild a packed task in the local pool's staged shape.

    ``resolve`` maps a :class:`BlobManifest` to a host-local
    :class:`ArrayRef` (the worker host's blob store).  Manifests become
    exactly the types the task functions already accept — ``ArrayRef``,
    ``FrozenState`` with a shared-memory payload, and
    ``SharedEncodedFlows`` — so local fan-out and the per-process
    thaw/model caches work unchanged on the remote host.
    """

    def walk(value: Any) -> Any:
        if isinstance(value, ArrayManifest):
            return resolve(value.blob)
        if isinstance(value, StateManifest):
            return FrozenState(content_hash=value.blob.content_hash,
                               payload=resolve(value.blob))
        if isinstance(value, EncodedManifest):
            return SharedEncodedFlows(
                metadata=resolve(value.metadata),
                measurements=resolve(value.measurements),
                gen_flags=resolve(value.gen_flags),
            )
        if is_dataclass(value) and not isinstance(value, type):
            changed = {}
            for field_info in fields(value):
                old = getattr(value, field_info.name)
                new = walk(old)
                if new is not old:
                    changed[field_info.name] = new
            return replace(value, **changed) if changed else value
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return type(value)(walk(v) for v in value)
        return value

    return walk(packed_task)
