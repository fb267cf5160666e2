"""Serialization for the runtime: ``.npz`` persistence and task packing.

**Persistence** — a model's state is a nested dict whose leaves are
either numpy arrays (weights, quantile tables, embedding matrices) or
plain JSON-able values (config scalars, vocab lists, flags).
``save_state_npz`` flattens it into a single ``.npz``: array leaves
become npz entries keyed by their ``/``-joined path; everything else
is gathered into one JSON document stored under ``__meta__``.
``load_state_npz`` reverses the mapping exactly.  Keys must not
contain ``/`` (the path separator); parameter names use ``.`` so this
never collides in practice.

**Task packing** — the one place that names a task's bulk payloads:
:class:`~repro.core.flow_encoder.EncodedFlows` tensors,
:class:`~repro.runtime.chunk_tasks.FrozenState` payloads, and
``np.ndarray`` fields of the task object itself (RowGAN rows).
:func:`pack_tasks` swaps each for a content-hash :class:`BlobManifest`
in place (an ``EncodedFlows`` of three manifests, a ``FrozenState``
whose payload is a manifest, a bare manifest for an array) and puts
the bytes in a side table deduplicated by hash, so N tasks sharing
one model state carry one blob.  Arrays nested deeper (a ``DgConfig``
anchor matrix) and plain dict states pickle inline: generate workers
keep models beyond the task, so a view held there would pin its block.
The process pool stages the table in a per-call ``SharedArena``; the
``remote`` backend ships it to worker hosts.  Every worker then runs
:func:`unpack_task`, which rebuilds plain views of the staged blocks,
so task functions only ever see plain values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from ..core.flow_encoder import EncodedFlows
from .chunk_tasks import FrozenState
from .shm import ArrayRef, Attachments

__all__ = ["flatten_state", "unflatten_state", "save_state_npz",
           "load_state_npz", "BlobManifest", "pack_tasks",
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
# Task packing: the dispatch shape of a task's bulk payloads.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlobManifest:
    """Content-addressed descriptor of one bulk payload.

    ``content_hash`` keys the per-call blob table (a payload is staged
    once per call however many tasks share it), the remote per-host
    dedup ledger and the host's blob store; shape/dtype let the
    receiver rebuild the typed view without any task context.  All
    fields are hash-stable primitives so the manifest itself pickles
    into a few dozen bytes.
    """

    content_hash: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize
                   * int(np.prod(self.shape, dtype=np.int64)))


def _hash_array(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(repr(tuple(array.shape)).encode("ascii"))
    digest.update(array.data)
    return digest.hexdigest()


def _over_fields(task: Any, convert: Callable[[Any], Any]) -> Any:
    """Apply ``convert`` to the task itself, or else to each of its
    fields (dataclass fields or dict values); rebuild what changed."""
    converted = convert(task)
    if converted is not task:
        return converted
    if isinstance(task, dict):
        items = {key: convert(value) for key, value in task.items()}
        return (items if any(items[k] is not task[k] for k in task)
                else task)
    if is_dataclass(task) and not isinstance(task, type):
        changed = {}
        for field_info in fields(task):
            old = getattr(task, field_info.name)
            new = convert(old)
            if new is not old:
                changed[field_info.name] = new
        return replace(task, **changed) if changed else task
    return task


def pack_tasks(tasks: Sequence[Any]
               ) -> Tuple[List[Any], Dict[str, np.ndarray]]:
    """Rewrite tasks into dispatch shape; return ``(packed, blob table)``.

    The blob table maps content hash to a contiguous array holding the
    payload bytes (the caller's own array where it already is one).  A
    payload object shared by many tasks is hashed and tabled once
    (identity-memoized within a call); a ``FrozenState`` reuses the
    hash it was frozen under, so worker-side thaw caches stay warm.
    """
    blobs: Dict[str, np.ndarray] = {}
    memo: Dict[int, Any] = {}

    def blob(array: np.ndarray, digest: "str | None" = None) -> BlobManifest:
        array = np.ascontiguousarray(array)
        digest = digest or _hash_array(array)
        blobs.setdefault(digest, array)
        return BlobManifest(content_hash=digest, shape=tuple(array.shape),
                            dtype=array.dtype.str)

    def convert(value: Any) -> Any:
        if isinstance(value, FrozenState):
            packed = FrozenState(value.content_hash, blob(
                np.frombuffer(value.payload, dtype=np.uint8),
                value.content_hash))
        elif isinstance(value, EncodedFlows):
            packed = EncodedFlows(metadata=blob(value.metadata),
                                  measurements=blob(value.measurements),
                                  gen_flags=blob(value.gen_flags))
        elif isinstance(value, np.ndarray):
            packed = blob(value)
        else:
            return value
        memo[id(value)] = packed
        return packed

    def memoized(value: Any) -> Any:
        packed = memo.get(id(value))
        return packed if packed is not None else convert(value)

    return [_over_fields(task, memoized) for task in tasks], blobs


def _manifests(value: Any) -> List[BlobManifest]:
    if isinstance(value, BlobManifest):
        return [value]
    if isinstance(value, FrozenState) and isinstance(value.payload,
                                                     BlobManifest):
        return [value.payload]
    if isinstance(value, EncodedFlows):
        return [m for m in (value.metadata, value.measurements,
                            value.gen_flags)
                if isinstance(m, BlobManifest)]
    return []


def manifest_hashes(packed_task: Any) -> Set[str]:
    """Every blob hash a packed task references (the pool's per-task
    block table, dispatch dedup and the host-side availability check
    all walk this)."""
    needed: Set[str] = set()

    def collect(value: Any) -> Any:
        needed.update(m.content_hash for m in _manifests(value))
        return value

    _over_fields(packed_task, collect)
    return needed


def unpack_task(packed_task: Any, blocks: Mapping[str, str],
                attachments: Attachments) -> Any:
    """Rebuild a packed task from plain views of its staged blocks.

    ``blocks`` maps each content hash to the shared-memory block that
    holds it; ``attachments`` maps the blocks and is closed by the
    caller once the task's reply is pickled.  Manifests become exactly
    the plain values the task was built from: an ``np.ndarray`` view,
    an ``EncodedFlows`` of three views, a ``FrozenState`` whose
    payload is a byte view (thawed through the content-hash cache).
    """

    def view(blob: BlobManifest) -> np.ndarray:
        return attachments.array(ArrayRef(
            name=blocks[blob.content_hash], shape=blob.shape,
            dtype=blob.dtype))

    def convert(value: Any) -> Any:
        if isinstance(value, BlobManifest):
            return view(value)
        if isinstance(value, FrozenState) and isinstance(value.payload,
                                                         BlobManifest):
            return FrozenState(value.content_hash, view(value.payload))
        if isinstance(value, EncodedFlows) and isinstance(value.metadata,
                                                          BlobManifest):
            return EncodedFlows(metadata=view(value.metadata),
                                measurements=view(value.measurements),
                                gen_flags=view(value.gen_flags))
        return value

    return _over_fields(packed_task, convert)
