"""E-WGAN-GP baseline (Ring et al. 2019), NetFlow-only as in §6.1.

"E-WGAN-GP first extends IP2Vec to embed all typical fields in a
NetFlow record — IP address/port/protocol/pkts per flow/bytes per
flow/flow start time/flow duration — into a fixed-length vector.  It
then trains a Wasserstein GAN with gradient penalty."

Faithfully-preserved limitations:

* the IP2Vec dictionary is trained on the *private* data (Table 2
  flags this as privacy-unsafe),
* generator embedding outputs are free-form vectors (no anchoring),
  which is why the heavy service-port modes get missed (Fig 3),
* each record is an independent row, so flow-length structure is
  lost (Fig 1a).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.ip2vec import IP2Vec, token
from ..datasets.records import FlowTrace
from ..runtime.chunk_tasks import (
    RowGanSampleTask,
    RowGanTask,
    freeze_state,
    sample_rowgan,
    train_rowgan,
)
from ..telemetry import emit_event
from ..telemetry.spans import span as _span
from .base import Synthesizer
from .rowgan import ColumnSpec, RowGan, RowGanConfig

__all__ = ["EWganGp"]


def _numeric_token(kind: str, value: float) -> str:
    """Quantize numeric fields to log2 buckets, as E-WGAN-GP's
    extended-IP2Vec treats every field as a discrete 'word'."""
    bucket = int(np.log2(1.0 + max(float(value), 0.0)) * 2.0)
    return f"{kind}:{bucket}"


class EWganGp(Synthesizer):
    name = "E-WGAN-GP"
    supports = ("netflow",)

    _FIELDS = ("sa", "da", "sp", "dp", "pr", "ts", "td", "pkt", "byt")

    def __init__(self, epochs: int = 30, embedding_dim: int = 8,
                 seed: int = 0, config: Optional[RowGanConfig] = None,
                 epoch_models: int = 1, jobs: Optional[int] = None):
        """``epoch_models > 1`` trains one WGAN per measurement epoch
        (time slice), as the original per-epoch baselines do — an
        embarrassingly parallel workload dispatched through the
        repro.runtime executor (``jobs`` workers; the process pool
        stages the per-epoch row tensors in shared memory so tasks
        dispatch as manifests)."""
        if epoch_models < 1:
            raise ValueError("need at least one epoch model")
        self.epochs = epochs
        self.embedding_dim = embedding_dim
        self.seed = seed
        self.config = config or RowGanConfig()
        self.epoch_models = int(epoch_models)
        self.jobs = jobs
        self._gan: Optional[RowGan] = None
        self._gans: List[Tuple[RowGan, int]] = []   # (model, rows trained on)
        self._ip2vec: Optional[IP2Vec] = None
        self._ts_scale = None
        self.train_seconds = 0.0

    # ------------------------------------------------------------------
    def _sentences(self, trace: FlowTrace) -> List[List[str]]:
        sentences = []
        for i in range(len(trace)):
            sentences.append([
                token("sa", trace.src_ip[i]),
                token("da", trace.dst_ip[i]),
                token("sp", trace.src_port[i]),
                token("dp", trace.dst_port[i]),
                token("pr", trace.protocol[i]),
                _numeric_token("ts", trace.start_time[i] - self._ts_origin),
                _numeric_token("td", trace.duration[i]),
                _numeric_token("pkt", trace.packets[i]),
                _numeric_token("byt", trace.bytes[i]),
            ])
        return sentences

    def fit(self, trace) -> "EWganGp":
        self._check_support(trace)
        self._ts_origin = float(trace.start_time.min())
        # Private-data dictionary: the privacy flaw the paper calls out.
        self._ip2vec = IP2Vec(dim=self.embedding_dim, epochs=2,
                              seed=self.seed)
        sentences = self._sentences(trace)
        self._ip2vec.fit(sentences)
        rows = np.hstack([
            self._ip2vec.encode_many(s[i] for s in sentences)
            for i in range(len(self._FIELDS))
        ])
        # Normalise the embedding block to keep WGAN inputs bounded.
        self._lo = rows.min(axis=0)
        span = rows.max(axis=0) - self._lo
        span[span == 0] = 1.0
        self._span = span
        rows = (rows - self._lo) / self._span
        columns = [
            ColumnSpec(field, self.embedding_dim, "free")
            for field in self._FIELDS
        ]
        # One model per measurement epoch (time slice); each epoch is a
        # stateless RowGanTask so the executor can fan them out.  Each
        # task's seed is derived from the epoch index, never from
        # scheduling order, so results are backend-independent.
        buckets = self._epoch_buckets(trace.start_time)
        with self._executor() as executor, \
                _span("ewgangp.fit", backend=executor.name,
                      epochs=len(buckets)):
            emit_event("fit_start", model="ewgangp", backend=executor.name,
                       jobs=executor.jobs, n_chunks=len(buckets),
                       records=len(trace))
            tasks = [
                RowGanTask(index=b, columns=columns, config=self.config,
                           seed=self.seed + b, rows=rows[idx],
                           epochs=self.epochs)
                for b, idx in enumerate(buckets)
            ]
            results = executor.map_tasks(train_rowgan, tasks)
        n_task_rows = [len(idx) for idx in buckets]
        self._gans = []
        self.train_seconds = 0.0
        for task, n_rows, result in zip(tasks, n_task_rows, results):
            gan = RowGan(columns, self.config, seed=self.seed + task.index)
            gan.load_state_dict(result.state)
            gan.train_seconds = result.train_seconds
            self._gans.append((gan, n_rows))
            self.train_seconds += result.train_seconds
        self._gan = self._gans[0][0]
        emit_event("fit_end", model="ewgangp",
                   cpu_seconds=self.train_seconds)
        return self

    def _epoch_buckets(self, start_time: np.ndarray) -> List[np.ndarray]:
        """Row indices per time-epoch; empty epochs are dropped."""
        if self.epoch_models == 1:
            return [np.arange(len(start_time))]
        lo, hi = float(start_time.min()), float(start_time.max())
        edges = np.linspace(lo, hi, self.epoch_models + 1)
        assignment = np.clip(
            np.searchsorted(edges, start_time, side="right") - 1,
            0, self.epoch_models - 1)
        return [idx for b in range(self.epoch_models)
                if len(idx := np.nonzero(assignment == b)[0])]

    # ------------------------------------------------------------------
    def _decode_numeric(self, vectors: np.ndarray, kind: str) -> np.ndarray:
        words = self._ip2vec.decode_many(vectors, kind)
        buckets = np.array([int(w.split(":", 1)[1]) for w in words])
        # Safe unguarded: buckets are dictionary tokens produced by
        # _log_bucket (2*log2(1+v)), bounded by the vocabulary — not
        # raw model output.
        return np.exp2(buckets / 2.0) - 1.0  # repro: ignore[numerical-stability]

    def _sample_raw(self, n_records: int, seed: Optional[int]) -> np.ndarray:
        """Draw raw rows, split across the per-epoch models by their
        training-row shares (single-model path is unchanged).

        Multi-model sampling fans out through the runtime executor as
        :class:`RowGanSampleTask` work items.  Every per-model seed is
        drawn parent-side in fixed model order, so the stacked output is
        bit-identical across serial/multiprocessing/remote backends.
        """
        if len(self._gans) == 1:
            return self._gan.generate(n_records, seed)
        rng = np.random.default_rng(self.seed if seed is None else seed)
        weights = np.array([count for _, count in self._gans], dtype=float)
        counts = np.floor(n_records * weights / weights.sum()).astype(int)
        # Largest-remainder top-up so the counts sum exactly.
        for i in np.argsort(-(n_records * weights / weights.sum() - counts)):
            if counts.sum() >= n_records:
                break
            counts[i] += 1
        with self._executor() as executor, \
                _span("ewgangp.sample", backend=executor.name,
                      target=n_records):
            tasks = [
                RowGanSampleTask(
                    index=b,
                    columns=self._gan.columns,
                    config=self.config,
                    seed=self.seed + b,
                    state=freeze_state(gan.state_dict()),
                    n_rows=int(k),
                    sample_seed=int(rng.integers(0, 2**31)),
                )
                for b, ((gan, _), k) in enumerate(zip(self._gans, counts))
                if k > 0
            ]
            blocks = executor.map_tasks(sample_rowgan, tasks)
        return np.vstack(blocks)

    def generate(self, n_records: int, seed: Optional[int] = None):
        if self._gan is None:
            raise RuntimeError("E-WGAN-GP is not fitted; call fit() first")
        raw = self._sample_raw(n_records, seed)
        raw = self._lo + raw * self._span
        blocks = self._gan.split_columns(raw)
        ip2v = self._ip2vec
        return FlowTrace(
            src_ip=ip2v.decode_values(blocks["sa"], "sa").astype(np.uint32),
            dst_ip=ip2v.decode_values(blocks["da"], "da").astype(np.uint32),
            src_port=ip2v.decode_values(blocks["sp"], "sp"),
            dst_port=ip2v.decode_values(blocks["dp"], "dp"),
            protocol=ip2v.decode_values(blocks["pr"], "pr"),
            start_time=self._ts_origin + self._decode_numeric(blocks["ts"], "ts"),
            duration=self._decode_numeric(blocks["td"], "td"),
            packets=np.maximum(
                np.round(self._decode_numeric(blocks["pkt"], "pkt")), 1
            ).astype(np.int64),
            bytes=np.maximum(
                np.round(self._decode_numeric(blocks["byt"], "byt")), 1
            ).astype(np.int64),
        ).sort_by_time()
