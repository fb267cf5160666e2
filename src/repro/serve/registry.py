"""LRU registry of loaded NetShare models for the serve daemon.

``NetShare.load`` pays the full archive parse, and a model's first
generate session pays the freezing of its encoder and chunk states
into :class:`~repro.runtime.chunk_tasks.FrozenState` blobs, which the
model then keeps.  A daemon answering a stream of requests must pay
both once per model, not once per request: the registry keeps each
loaded model resident, so a registry hit starts planning tasks with
zero pickling — and because the frozen blobs are content-hash keyed,
every worker's per-process model/encoder caches stay warm across
requests too (the same hashes keep arriving).

Capacity is bounded (LRU eviction) so a daemon fronting many archives
has a predictable memory ceiling.  Each (re)load bumps a monotonically
increasing **generation**: a model file replaced on disk (new mtime)
is reloaded on next use, and the new generation number shows up in
responses/metrics so clients can tell exactly when the model behind a
name changed.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.netshare import NetShare
from ..telemetry.state import STATE

__all__ = ["LoadedModel", "ModelRegistry"]


@dataclass
class LoadedModel:
    """One resident model and the archive it was loaded from."""

    name: str
    path: str
    model: NetShare
    generation: int
    mtime_ns: int

    @property
    def kind(self) -> Optional[str]:
        return self.model.kind


class ModelRegistry:
    """Name -> :class:`LoadedModel` with LRU eviction and hot reload.

    ``register`` only records the path (loading is lazy);  ``get``
    loads on first use, bumps the entry to most-recently-used, and
    transparently reloads when the file's mtime changed.  All methods
    are thread-safe: the daemon's handler threads read (``names``,
    ``stats``) while the scheduler thread loads.
    """

    def __init__(self, capacity: int = 4, hit_counter=None,
                 miss_counter=None):
        if capacity < 1:
            raise ValueError("registry capacity must be >= 1")
        self.capacity = int(capacity)
        self._paths: Dict[str, str] = {}
        # Insertion order doubles as LRU order (move-to-end on hit).
        self._resident: Dict[str, LoadedModel] = {}
        self._lock = threading.Lock()
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.evictions = 0
        # Optional externally-owned counters (the daemon passes its
        # always-on stats registry instruments) on top of the global
        # telemetry counters below.
        self._hit_counter = hit_counter
        self._miss_counter = miss_counter

    # ------------------------------------------------------------------
    def register(self, name: str, path) -> None:
        """Map a model name to a ``NetShare.save`` archive path."""
        if not name:
            raise ValueError("model name must be non-empty")
        with self._lock:
            self._paths[name] = str(path)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._paths)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._paths

    # ------------------------------------------------------------------
    def _load(self, name: str, path: str, mtime_ns: int) -> LoadedModel:
        model = NetShare.load(path)
        self._generation += 1
        return LoadedModel(name=name, path=path, model=model,
                           generation=self._generation, mtime_ns=mtime_ns)

    def get(self, name: str) -> LoadedModel:
        """The resident entry for ``name`` (loading/reloading as needed).

        Raises ``KeyError`` for unregistered names — the daemon turns
        that into an ``error`` response, never a crash.
        """
        with self._lock:
            path = self._paths.get(name)
            if path is None:
                raise KeyError(f"unknown model {name!r}; registered: "
                               f"{sorted(self._paths)}")
            mtime_ns = os.stat(path).st_mtime_ns
            entry = self._resident.get(name)
            if entry is not None and entry.mtime_ns == mtime_ns:
                # Move-to-end keeps dict order == LRU order.
                self._resident.pop(name)
                self._resident[name] = entry
                self.hits += 1
                self._count(self._hit_counter,
                            "serve.registry.hits")
                return entry
            # Miss (cold) or stale (file replaced): (re)load under the
            # lock so concurrent callers never double-load one archive.
            self.misses += 1
            self._count(self._miss_counter, "serve.registry.misses")
            if entry is not None:
                self._resident.pop(name)
            entry = self._load(name, path, mtime_ns)
            self.loads += 1
            self._resident[name] = entry
            while len(self._resident) > self.capacity:
                evicted = next(iter(self._resident))
                self._resident.pop(evicted)
                self.evictions += 1
            return entry

    @staticmethod
    def _count(counter, telemetry_name: str) -> None:
        if counter is not None:
            counter.inc()
        if STATE.enabled:
            STATE.registry.counter(telemetry_name).inc()

    # ------------------------------------------------------------------
    def resident(self) -> List[str]:
        """Currently-loaded names, least-recently-used first."""
        with self._lock:
            return list(self._resident)

    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        return self.hits / total if total else None

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "registered": len(self._paths),
                "resident": len(self._resident),
                "hits": self.hits,
                "misses": self.misses,
                "loads": self.loads,
                "evictions": self.evictions,
                "generations": {name: entry.generation
                                for name, entry in self._resident.items()},
            }
