"""Shared-memory blocks for the process pool and the worker hosts.

Pickling every task into the worker pipe would make a
:class:`~repro.runtime.chunk_tasks.ChunkTask` carrying a chunk's
encoded tensors (and possibly a full warm-start ``state_dict``) pay a
serialize/deserialize round-trip per task — for large chunks, dispatch
cost rivals training cost.  The executors keep that payload out of the
pipe: :func:`~repro.runtime.serialization.pack_tasks` names each bulk
payload once, the ``multiprocessing`` pool copies it into a
``multiprocessing.shared_memory`` block owned by a :class:`SharedArena`,
and tasks travel with only tiny manifests.  Workers map the named
block and rebuild a numpy view directly onto the shared buffer — no
copy, no pickle.  Callers never see any of this: they build tasks from
plain values.

Lifecycle rules:

* the **arena** (the pool's ``map_tasks`` call, or a worker host's
  blob store) owns every block it creates and unlinks them all when
  it closes — on normal return, on a task exception, and even if a
  worker died mid-task (POSIX shared memory persists until explicitly
  unlinked, so cleanup is the owner's job and only the owner's job).
  A ``weakref.finalize`` backstop covers arenas that are never closed.
* **workers** map blocks per task through :class:`Attachments` and
  close those mappings once the task's reply is pickled, so a
  long-lived worker holds no block of a finished call.  A worker also
  closes the mappings it inherited from its parent's arenas when it
  is forked (:func:`release_inherited`).  Views are only valid while
  the task runs — anything that outlives the task must be a copy
  (training results already are: ``state_dict()`` copies).
* Python < 3.13 registers *attached* segments with the resource
  tracker as if the attacher owned them (bpo-39959).  Pool workers
  share the coordinator's tracker (the pool starts it before forking),
  so an attach re-registers a name the owner already holds — a no-op
  — and the tracker still reclaims every block of a killed
  coordinator.  Attachers must not unregister: in a shared tracker
  that drops the owner's entry.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from secrets import token_hex
from typing import Dict, Tuple, Union

import numpy as np

from ..telemetry import emit_event
from ..telemetry.state import STATE

__all__ = [
    "ArrayRef",
    "SharedArena",
    "Attachments",
    "block_exists",
    "release_inherited",
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


# Blocks created by arenas in *this* process: attaching to one of our
# own blocks reuses the creator's mapping instead of opening a second
# handle (and keeps the resource tracker's books balanced).
_OWNED_BLOCKS: Dict[str, shared_memory.SharedMemory] = {}


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Undo the resource tracker's registration of a probe's attach
    (Python < 3.13 tracks attachments as ownership)."""
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _close(block: shared_memory.SharedMemory) -> bool:
    """Close one mapping; False while a view still exports it."""
    try:
        block.close()
    except BufferError:
        return False
    return True


class Attachments:
    """The blocks one task maps, closed together when the task ends.

    :meth:`array` returns a zero-copy view; a block this process owns
    is viewed through the owner's mapping, any other is mapped once
    per ``Attachments`` and closed by :meth:`close`.  Every view must
    be dead by then: a view kept alive by a reference cycle (a
    traceback holding a task frame, say) is collected first, and one
    that is still referenced keeps its block mapped until it dies.
    """

    def __init__(self):
        self._opened: Dict[str, shared_memory.SharedMemory] = {}

    def array(self, ref: ArrayRef) -> np.ndarray:
        block = _OWNED_BLOCKS.get(ref.name) or self._opened.get(ref.name)
        if block is None:
            block = shared_memory.SharedMemory(name=ref.name)
            self._opened[ref.name] = block
        return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                          buffer=block.buf)

    def close(self) -> None:
        """Close every mapping this task opened (idempotent)."""
        if not all(_close(block) for block in self._opened.values()):
            gc.collect()
            for block in self._opened.values():
                _close(block)
        self._opened.clear()

    def __enter__(self) -> "Attachments":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def release_inherited() -> None:
    """Close the mappings a forked child inherited from its parent's
    arenas.  The parent still owns (and unlinks) those blocks; the
    child maps what its tasks need through :class:`Attachments`."""
    for block in _OWNED_BLOCKS.values():
        _close(block)
    _OWNED_BLOCKS.clear()


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


def _unlink(name: str, block: shared_memory.SharedMemory) -> None:
    """Unlink + close one owned block."""
    _OWNED_BLOCKS.pop(name, None)
    try:
        block.unlink()
    except FileNotFoundError:
        pass
    _close(block)  # a dangling view keeps the memory until it dies


def _release(blocks: Dict[str, shared_memory.SharedMemory]) -> None:
    """Unlink + close a set of owned blocks (module-level so the
    weakref finalizer holds no reference to the arena itself)."""
    for name, block in list(blocks.items()):
        _unlink(name, block)
    blocks.clear()


class SharedArena:
    """Owns a family of shared-memory blocks with guaranteed unlink.

    The process pool opens one around each ``map_tasks`` call::

        with SharedArena() as arena:
            ref = arena.share_array(payload)
            ...  # workers attach ``ref`` while the call runs
        # every block is unlinked here, whatever happened above
    """

    def __init__(self, prefix: str = "repro"):
        self._prefix = prefix
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        # Staged payload bytes per block (ArrayRef.nbytes, NOT the OS
        # block size: that is floored at 1 byte for empty arrays and
        # page-rounded on some platforms).
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
        if block is not None:
            _unlink(name, block)

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
