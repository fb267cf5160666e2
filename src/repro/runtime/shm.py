"""Zero-copy shared-memory data plane for the task executors.

Pickling every task into the worker pipe would make a
:class:`~repro.runtime.chunk_tasks.ChunkTask` carrying a chunk's
encoded tensors (and possibly a full warm-start ``state_dict``) pay a
serialize/deserialize round-trip per task — for large chunks, dispatch
cost rivals training cost.  This module removes the payload from the
pipe: arrays are placed in ``multiprocessing.shared_memory`` blocks
owned by a :class:`SharedArena`, and tasks carry only tiny
:class:`ArrayRef` manifests (name/shape/dtype).  Workers attach to the
named block and build a numpy view directly onto the shared buffer —
no copy, no pickle.

Lifecycle rules:

* the **arena** (parent process) owns every block it creates and
  unlinks them all when its ``with`` block exits — on normal exit, on
  a task exception, and even if a worker died mid-task (POSIX shared
  memory persists until explicitly unlinked, so cleanup is the
  parent's job and only the parent's job).  A ``weakref.finalize``
  backstop covers arenas that are never used as context managers.
* **workers** (and same-process attachers) hold their tensor
  attachments in a per-process cache so repeated refs to one block
  share a single mapping; handles are released at process exit.
  Attached views are only valid while the arena is open — tasks must
  copy anything that outlives the ``map_tasks`` call (training results
  already do: ``state_dict()`` copies).  Byte blobs are copied out and
  their mapping closed at once (:func:`read_shared_bytes`).
* Python < 3.13 registers *attached* segments with the resource
  tracker as if the attacher owned them (bpo-39959).  Pool workers
  share the coordinator's tracker (the pool starts it before forking),
  so an attach re-registers a name the owner already holds — a no-op
  — and the tracker still reclaims every block of a killed
  coordinator.  Attachers must not unregister: in a shared tracker
  that drops the owner's entry.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from secrets import token_hex
from typing import Dict, Tuple, Union

import numpy as np

from ..core.flow_encoder import EncodedFlows
from ..telemetry import emit_event
from ..telemetry.state import STATE

__all__ = [
    "ArrayRef",
    "SharedEncodedFlows",
    "SharedArena",
    "attach_array",
    "read_shared_bytes",
    "block_exists",
    "detach_all",
]


@dataclass(frozen=True)
class ArrayRef:
    """Manifest for one shared array: everything a worker needs to
    attach and rebuild the numpy view, in a few dozen pickled bytes."""

    name: str                  # shared-memory block name
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class SharedEncodedFlows:
    """An :class:`EncodedFlows` whose tensors live in shared memory."""

    metadata: ArrayRef
    measurements: ArrayRef
    gen_flags: ArrayRef

    def materialize(self) -> EncodedFlows:
        """Attach and return zero-copy views as a real EncodedFlows."""
        return EncodedFlows(
            metadata=attach_array(self.metadata),
            measurements=attach_array(self.measurements),
            gen_flags=attach_array(self.gen_flags),
        )

    def __len__(self) -> int:
        return int(self.metadata.shape[0])


# Blocks created by arenas in *this* process: attaching to one of our
# own blocks reuses the creator's mapping instead of opening a second
# handle (and keeps the resource tracker's books balanced).
_OWNED_BLOCKS: Dict[str, shared_memory.SharedMemory] = {}
# Blocks this process attached to (worker side): one mapping per name,
# kept alive for the process lifetime so views never dangle.
_ATTACHED_BLOCKS: Dict[str, shared_memory.SharedMemory] = {}


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Undo the resource tracker's registration of a probe's attach
    (Python < 3.13 tracks attachments as ownership)."""
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _mapped(name: str):
    """This process's open mapping of a block, if it has one."""
    return _OWNED_BLOCKS.get(name) or _ATTACHED_BLOCKS.get(name)


def attach_array(ref: ArrayRef) -> np.ndarray:
    """Return a zero-copy numpy view onto the referenced shared block."""
    block = _mapped(ref.name)
    if block is None:
        block = shared_memory.SharedMemory(name=ref.name)
        _ATTACHED_BLOCKS[ref.name] = block
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=block.buf)


def read_shared_bytes(ref: ArrayRef) -> bytes:
    """Copy a byte-blob (uint8 block) out of shared memory.

    A blob is thawed once and dropped, so its segment stays mapped only
    for the copy: caching the mapping the way :func:`attach_array` does
    would pin every blob a long-lived worker ever read, unlinked or not.
    """
    block = _mapped(ref.name)
    if block is not None:
        return bytes(block.buf[:ref.nbytes])
    block = shared_memory.SharedMemory(name=ref.name)
    try:
        return bytes(block.buf[:ref.nbytes])
    finally:
        block.close()


def block_exists(name: str) -> bool:
    """True if the named block is still linked (used by lifecycle tests
    from the owning process; a probe from a process sharing the owner's
    tracker would drop the owner's registration)."""
    if name in _OWNED_BLOCKS:
        return True
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    _untrack(probe)
    probe.close()
    return True


def detach_all() -> None:
    """Drop this process's attachment cache (test/teardown helper)."""
    for block in _ATTACHED_BLOCKS.values():
        try:
            block.close()
        except BufferError:
            pass  # a view still references the buffer; leave it mapped
    _ATTACHED_BLOCKS.clear()


def _release(blocks: Dict[str, shared_memory.SharedMemory]) -> None:
    """Unlink + close a set of owned blocks (module-level so the
    weakref finalizer holds no reference to the arena itself)."""
    for name, block in list(blocks.items()):
        _OWNED_BLOCKS.pop(name, None)
        try:
            block.unlink()
        except FileNotFoundError:
            pass
        try:
            block.close()
        except BufferError:
            pass  # dangling view; memory is reclaimed when it dies
    blocks.clear()


class SharedArena:
    """Owns a family of shared-memory blocks with guaranteed unlink.

    Use as a context manager around an ``Executor.map_tasks`` call::

        with SharedArena() as arena:
            ref = arena.share_array(encoded.metadata)
            ...
            executor.map_tasks(train_chunk, tasks)
        # every block is unlinked here, whatever happened above
    """

    def __init__(self, prefix: str = "repro"):
        self._prefix = prefix
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        # Staged payload bytes per block (ArrayRef.nbytes, NOT the OS
        # block size: that is floored at 1 byte for empty arrays and
        # page-rounded on some platforms, which would skew the
        # dispatch-byte metric in BENCH_runtime.json).
        self._nbytes: Dict[str, int] = {}
        self._finalizer = weakref.finalize(self, _release, self._blocks)

    # -- creation ------------------------------------------------------
    def share_array(self, array: np.ndarray) -> ArrayRef:
        """Copy ``array`` into a new shared block; return its manifest."""
        array = np.ascontiguousarray(array)
        name = f"{self._prefix}_{token_hex(8)}"
        block = shared_memory.SharedMemory(
            name=name, create=True, size=max(int(array.nbytes), 1))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        self._blocks[name] = block
        _OWNED_BLOCKS[name] = block
        ref = ArrayRef(name=name, shape=tuple(array.shape),
                       dtype=array.dtype.str)
        self._nbytes[name] = ref.nbytes
        if STATE.enabled:
            STATE.registry.counter("shm.bytes_staged").inc(ref.nbytes)
            STATE.registry.counter("shm.blocks_staged").inc()
            emit_event("shm_stage", name=name, nbytes=ref.nbytes,
                       shape=list(ref.shape), dtype=ref.dtype)
        return ref

    def share_bytes(self, payload: bytes) -> ArrayRef:
        """Place an opaque byte-blob (e.g. a pickled state) in a block."""
        return self.share_array(np.frombuffer(payload, dtype=np.uint8))

    def share_encoded(self, encoded: EncodedFlows) -> SharedEncodedFlows:
        """Move a chunk's three tensors into the arena."""
        return SharedEncodedFlows(
            metadata=self.share_array(encoded.metadata),
            measurements=self.share_array(encoded.measurements),
            gen_flags=self.share_array(encoded.gen_flags),
        )

    # -- introspection -------------------------------------------------
    @property
    def block_names(self):
        return tuple(self._blocks)

    @property
    def shared_bytes(self) -> int:
        """Total *staged payload* bytes currently resident: the sum of
        every live block's ``ArrayRef.nbytes``.  Matches what workers
        can actually attach, independent of OS block-size rounding."""
        return sum(self._nbytes.get(name, 0) for name in self._blocks)

    # -- lifecycle -----------------------------------------------------
    def drop(self, ref: Union["ArrayRef", str]) -> None:
        """Unlink and release one block early (LRU eviction in the
        remote worker host's blob store).  Same-process views created
        before the drop stay valid — POSIX keeps unlinked memory alive
        while mapped — but new attaches by name will fail."""
        name = ref.name if isinstance(ref, ArrayRef) else str(ref)
        block = self._blocks.pop(name, None)
        self._nbytes.pop(name, None)
        if block is None:
            return
        _OWNED_BLOCKS.pop(name, None)
        try:
            block.unlink()
        except FileNotFoundError:
            pass
        try:
            block.close()
        except BufferError:
            pass  # dangling view; memory reclaimed when it dies

    def close(self) -> None:
        """Unlink and release every block (idempotent)."""
        if self._blocks and STATE.enabled:
            emit_event("shm_unlink", blocks=len(self._blocks),
                       nbytes=self.shared_bytes)
        _release(self._blocks)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def maybe_arena(executor) -> "SharedArena | _NullArena":
    """An open arena if the executor wants shared memory (every backend
    but serial), else a no-op stand-in — lets call sites use one
    ``with`` either way."""
    if getattr(executor, "uses_shared_memory", False):
        return SharedArena()
    return _NullArena()


class _NullArena:
    """Context-manager stand-in for the serial backend."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None
