"""Baseline synthesizer interface.

Every baseline (and NetShare itself, via an adapter in the benchmark
harness) exposes ``fit(trace)`` / ``generate(n, seed)`` returning a
trace of the same type, so the fidelity and downstream-task harnesses
treat all models uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..datasets.records import FlowTrace, PacketTrace

__all__ = ["Synthesizer"]


class Synthesizer(ABC):
    """Abstract synthetic trace generator."""

    #: Display name used in figures/tables (matches the paper).
    name: str = "base"
    #: Which trace kinds the model supports, as in §6.1's baseline list.
    supports = ("netflow", "pcap")
    #: Worker count for the repro.runtime executor (None = REPRO_JOBS
    #: env var, then serial).  Baselines with parallelisable training
    #: (e.g. the epoch-parallel E-WGAN-GP) dispatch through this so
    #: scalability comparisons with NetShare share infrastructure.
    jobs: Optional[int] = None

    def _executor(self):
        from ..runtime import get_executor

        return get_executor(self.jobs)

    def _check_support(self, trace) -> str:
        kind = "netflow" if isinstance(trace, FlowTrace) else (
            "pcap" if isinstance(trace, PacketTrace) else None)
        if kind is None:
            raise TypeError("expected a FlowTrace or PacketTrace")
        if kind not in self.supports:
            raise TypeError(
                f"{self.name} supports {self.supports}, got {kind} data"
            )
        return kind

    @abstractmethod
    def fit(self, trace) -> "Synthesizer":
        """Train on a real trace."""

    @abstractmethod
    def generate(self, n_records: int, seed: Optional[int] = None):
        """Generate ~n_records synthetic records."""
