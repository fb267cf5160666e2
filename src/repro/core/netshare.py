"""NetShare: the end-to-end synthetic header trace generator (Fig 9).

Pipeline, combining the paper's four insights:

1. **Pre-processing** (I1/I2): merge epochs into the giant trace,
   split into five-tuple flows, encode fields (IP bits, IP2Vec ports
   and protocols trained on *public* data, log transforms).
2. **Training** (I1/I3/I4): slice flows into M fixed-time chunks with
   flow tags; train the time-series GAN on the first chunk ("seed"),
   then fine-tune per-chunk copies from the seed model — enabling
   parallel training while preserving cross-chunk correlations via the
   tags.  With DP enabled, pre-train on a public trace and fine-tune
   on private data with DP-SGD.  Chunk training runs on the
   :mod:`repro.runtime` executor layer: the seed chunk trains first,
   the remaining chunks fan out as stateless tasks across the
   executor that ``config.jobs`` / ``config.hosts`` select, and results
   are bit-identical across backends because every task derives its
   RNG from ``config.seed + chunk_index``.
3. **Post-processing**: decode embeddings (nearest neighbour),
   generate derived fields (checksums), and merge records by raw
   timestamp / flow start time.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.records import FlowTrace, PacketTrace
from ..datasets.profiles import load_dataset
from ..gan.doppelganger import DgConfig, DoppelGANger, TrainingLog
from ..nn import bucket_size
from ..privacy.accountant import RdpAccountant
from ..privacy.dpsgd import DpSgdConfig
from ..runtime import get_executor
from ..runtime.chunk_tasks import (
    ChunkResult,
    ChunkTask,
    GenerateTask,
    freeze_state,
    generate_chunk,
    train_chunk,
)
from ..runtime.serialization import load_state_npz, save_state_npz
from ..telemetry import emit_event
from ..telemetry.spans import span
from ..telemetry.state import STATE as _TELEMETRY
from .flow_encoder import FlowTensorEncoder
from .ip2vec import IP2Vec, five_tuple_sentences
from .preprocess import chunk_flows, split_into_flows, time_range
from .postprocess import finalize_flow_trace, finalize_packet_trace

__all__ = ["NetShareConfig", "NetShare", "GenerateSession"]


@dataclass
class NetShareConfig:
    """End-to-end configuration.

    ``n_chunks=1`` with ``fine_tune_chunks=False`` reproduces
    'NetShare-V0' from Fig 4 — the merged time-series formulation
    without the scalability optimisation.
    """

    n_chunks: int = 5
    max_timesteps: int = 8
    port_encoding: str = "ip2vec"       # or "bit" (ablation)
    ip2vec_dim: int = 8
    ip2vec_public_dataset: str = "caida_chicago_2015"
    ip2vec_public_records: int = 1500
    epochs_seed: int = 30
    epochs_fine_tune: int = 10
    fine_tune_chunks: bool = True
    numeric_encoding: str = "quantile"  # "log"/"linear" for ablation
    batch_size: int = 32
    anchor_count: int = 96
    noise_dim: int = 12
    rnn_hidden: int = 48
    seed: int = 0
    # Training parallelism: worker count for the repro.runtime executor
    # (None = REPRO_JOBS env var, then 1 = serial; 0 = one per CPU).
    jobs: Optional[int] = None
    # Worker hosts ('host:port,host:port'; None falls back to
    # REPRO_HOSTS).  Hosts select the remote executor; without them,
    # jobs > 1 selects the local process pool.
    hosts: Optional[str] = None
    # Differential privacy (Insight 4); None disables DP.
    dp: Optional[DpSgdConfig] = None
    dp_public_dataset: Optional[str] = None
    dp_public_records: int = 1000
    dp_public_epochs: int = 20

    def __post_init__(self):
        if self.n_chunks < 1:
            raise ValueError("need at least one chunk")
        if self.epochs_seed < 1 or self.epochs_fine_tune < 0:
            raise ValueError("invalid epoch counts")


@dataclass
class _TrainedChunk:
    index: int                    # position in the M-chunk time grid
    model: DoppelGANger
    window: Tuple[float, float]
    n_flows: int
    n_records: int


class NetShare:
    """Fit on a header trace; generate synthetic traces of the same kind."""

    def __init__(self, config: Optional[NetShareConfig] = None):
        self.config = config or NetShareConfig()
        self._encoder: Optional[FlowTensorEncoder] = None
        self._chunks: List[_TrainedChunk] = []
        self._kind: Optional[str] = None
        self.cpu_seconds: float = 0.0       # summed per-task training time
        self.wall_seconds: float = 0.0      # measured training wall-clock
        self.backend: Optional[str] = None  # executor backend used by fit
        self.spent_epsilon: Optional[float] = None
        # Task-message bytes and count the executor sent to workers or
        # hosts (0 when every call ran in-process).
        self.dispatch_bytes: int = 0
        self.dispatch_tasks: int = 0
        self.generate_dispatch_bytes: int = 0
        self.generate_wall_seconds: float = 0.0

    @property
    def kind(self) -> Optional[str]:
        """'netflow' or 'pcap' once fitted (or loaded), else None."""
        return self._kind

    # ------------------------------------------------------------------
    def _build_ip2vec(self) -> Optional[IP2Vec]:
        if self.config.port_encoding != "ip2vec":
            return None
        public = load_dataset(
            self.config.ip2vec_public_dataset,
            n_records=self.config.ip2vec_public_records,
            seed=self.config.seed + 7,
        )
        model = IP2Vec(dim=self.config.ip2vec_dim, epochs=2,
                       seed=self.config.seed)
        return model.fit(five_tuple_sentences(public))

    def _gan_config(self, encoder: FlowTensorEncoder) -> DgConfig:
        return DgConfig(
            metadata_dim=encoder.metadata_width,
            measurement_dim=encoder.measurement_width,
            max_timesteps=self.config.max_timesteps,
            noise_dim=self.config.noise_dim,
            rnn_hidden=self.config.rnn_hidden,
            batch_size=self.config.batch_size,
            metadata_segments=encoder.metadata_segments(
                max_anchors=self.config.anchor_count),
        )

    def _make_encoder(self, trace) -> FlowTensorEncoder:
        kind = "netflow" if isinstance(trace, FlowTrace) else "pcap"
        encoder = FlowTensorEncoder(
            kind,
            max_timesteps=self.config.max_timesteps,
            port_encoding=self.config.port_encoding,
            ip2vec=self._build_ip2vec(),
            n_chunks=self.config.n_chunks,
            numeric_encoding=self.config.numeric_encoding,
        )
        return encoder.fit(trace)

    def _chunk_windows(self, trace) -> List[Tuple[float, float]]:
        lo, hi = time_range(trace)
        edges = np.linspace(lo, hi, self.config.n_chunks + 1)
        return [(float(edges[i]), float(edges[i + 1]))
                for i in range(self.config.n_chunks)]

    # ------------------------------------------------------------------
    def fit(self, trace) -> "NetShare":
        """Train on a FlowTrace or PacketTrace.

        Chunk training is dispatched through the :mod:`repro.runtime`
        executor (Insight 3's parallelism made real): the seed chunk
        trains first in-process, then the remaining chunks fan out as
        :class:`ChunkTask` work items.  ``wall_seconds`` is the
        *measured* wall-clock of the training phase; ``cpu_seconds``
        is the per-task training-time sum, so with ``jobs > 1`` on a
        multi-core machine wall < cpu.
        """
        if not isinstance(trace, (FlowTrace, PacketTrace)):
            raise TypeError("NetShare fits on FlowTrace or PacketTrace")
        if len(trace) == 0:
            raise ValueError("cannot fit on an empty trace")
        cfg = self.config
        self._kind = "netflow" if isinstance(trace, FlowTrace) else "pcap"
        self._encoder = self._make_encoder(trace)
        windows = self._chunk_windows(trace)
        chunk_lists = chunk_flows(trace, cfg.n_chunks)

        # Public pre-training for DP (Insight 4).
        pretrained_state = None
        if cfg.dp is not None and cfg.dp_public_dataset is not None:
            pretrained_state = self._pretrain_public()

        occupied = [
            (c, flows, window)
            for c, (flows, window) in enumerate(zip(chunk_lists, windows))
            if flows
        ]
        if not occupied:
            raise ValueError("no non-empty chunks to train on")
        gan_config = self._gan_config(self._encoder)
        encoded = {c: self._encoder.encode_chunk(flows, window)
                   for c, flows, window in occupied}

        results: Dict[int, ChunkResult] = {}
        modes: Dict[int, str] = {}
        wall_start = time.perf_counter()
        # The executor's worker pool lives for the training window
        # (closed by the ``with``); it stages the tasks' tensors and
        # states itself, per map_tasks call.
        with get_executor(cfg.jobs, cfg.hosts) as executor, \
                span("netshare.fit", backend=executor.name,
                     n_chunks=len(occupied)):
            self.backend = executor.name
            emit_event("fit_start", model="netshare",
                       backend=executor.name, jobs=executor.jobs,
                       n_chunks=len(occupied), records=len(trace))

            def make_task(c: int, epochs: int, mode: str,
                          init_state=None) -> ChunkTask:
                modes[c] = mode
                return ChunkTask(
                    chunk_index=c, encoded=encoded[c], gan_config=gan_config,
                    seed=cfg.seed + c, epochs=epochs, mode=mode,
                    init_state=init_state, dp_config=cfg.dp,
                )

            if cfg.dp is not None:
                # Every chunk fine-tunes (or trains) independently with
                # DP-SGD, optionally warm-started from the public model.
                epochs = (cfg.epochs_fine_tune
                          if pretrained_state is not None
                          else cfg.epochs_seed)
                init = freeze_state(pretrained_state)
                tasks = [make_task(c, epochs, "fit_dp", init)
                         for c, _, _ in occupied]
                batch = executor.map_tasks(train_chunk, tasks)
            elif cfg.fine_tune_chunks and len(occupied) > 1:
                # Insight 3: the seed chunk trains first; every other
                # chunk warm-starts from it and fans out across the
                # backend.  The seed state is frozen (pickled) once and
                # shared by every fine-tune task rather than being
                # re-serialized into each payload.
                seed_index = occupied[0][0]
                seed_result = train_chunk(
                    make_task(seed_index, cfg.epochs_seed, "fit"))
                modes[seed_index] = "seed"
                init = freeze_state(seed_result.state)
                tasks = [make_task(c, cfg.epochs_fine_tune, "fine_tune",
                                   init)
                         for c, _, _ in occupied[1:]]
                batch = ([seed_result]
                         + executor.map_tasks(train_chunk, tasks))
            else:
                # No warm start: chunks are fully independent tasks.
                tasks = [make_task(c, cfg.epochs_seed, "fit")
                         for c, _, _ in occupied]
                batch = executor.map_tasks(train_chunk, tasks)
            self.wall_seconds = time.perf_counter() - wall_start
            self.dispatch_bytes = executor.dispatch_bytes
            self.dispatch_tasks = executor.dispatch_tasks
        for result in batch:
            results[result.chunk_index] = result
            emit_event("chunk_result", chunk=result.chunk_index,
                       mode=modes.get(result.chunk_index),
                       train_seconds=result.train_seconds,
                       epochs=len(result.log.d_loss),
                       steps=result.log.steps)

        self._chunks = []
        for c, flows, window in occupied:
            result = results[c]
            model = DoppelGANger.from_state(
                gan_config, result.state, seed=cfg.seed + c, log=result.log)
            self._chunks.append(_TrainedChunk(
                index=c, model=model, window=window, n_flows=len(flows),
                n_records=sum(len(f) for f in flows),
            ))
        self.cpu_seconds = float(
            sum(r.train_seconds for r in results.values()))
        if cfg.dp is not None:
            self.spent_epsilon = self._account_epsilon()
        emit_event("fit_end", model="netshare", backend=self.backend,
                   wall_seconds=self.wall_seconds,
                   cpu_seconds=self.cpu_seconds,
                   epsilon=self.spent_epsilon)
        return self

    def _pretrain_public(self):
        cfg = self.config
        public = load_dataset(cfg.dp_public_dataset,
                              n_records=cfg.dp_public_records,
                              seed=cfg.seed + 13)
        public_kind = "netflow" if isinstance(public, FlowTrace) else "pcap"
        if public_kind != self._kind:
            raise ValueError(
                "public pre-training dataset must match the private kind"
            )
        flows = split_into_flows(public)
        window = time_range(public)
        # The public encoder shares this instance's field encoders so
        # the pretrained weights transfer.
        encoded = self._encoder.encode_chunk(
            [f for f in flows], window
        )
        model = DoppelGANger(self._gan_config(self._encoder), seed=cfg.seed)
        model.fit(encoded, epochs=cfg.dp_public_epochs)
        state = model.state_dict()
        # The model is a reference cycle: free its tapes now, before
        # the DP fit forks workers that would inherit them.
        model.release_tapes()
        return state

    def _account_epsilon(self) -> float:
        cfg = self.config
        accountant = RdpAccountant()
        for chunk in self._chunks:
            model = chunk.model
            sampling = min(1.0, cfg.batch_size / max(chunk.n_flows, 1))
            if cfg.dp.noise_multiplier <= 0:
                return float("inf")
            steps = model.log.steps * model.config.n_critic
            accountant.step(cfg.dp.noise_multiplier, sampling,
                            num_steps=steps)
            if _TELEMETRY.enabled:
                # Cumulative ε after each chunk: the report CLI renders
                # this as the run's privacy trajectory.
                emit_event("dp_epsilon", chunk=chunk.index, steps=steps,
                           epsilon=accountant.get_epsilon(cfg.dp.delta))
        return accountant.get_epsilon(cfg.dp.delta)

    # ------------------------------------------------------------------
    _SAVE_FORMAT = "netshare-npz"
    _SAVE_VERSION = 1

    def save(self, path) -> None:
        """Persist the trained model to a single ``.npz`` archive.

        The archive holds the full config, the fitted encoder state
        (field scalers + IP2Vec dictionary), and every chunk's
        ``state_dict`` — enough to :meth:`load` and generate without
        retraining.
        """
        if self._encoder is None or not self._chunks:
            raise RuntimeError("NetShare is not fitted; call fit() first")
        chunks = {}
        for position, chunk in enumerate(self._chunks):
            chunks[f"chunk_{position}"] = {
                "index": chunk.index,
                "window": np.asarray(chunk.window, dtype=np.float64),
                "n_flows": chunk.n_flows,
                "n_records": chunk.n_records,
                "log": {
                    "d_loss": [float(v) for v in chunk.model.log.d_loss],
                    "g_loss": [float(v) for v in chunk.model.log.g_loss],
                    "wall_seconds": chunk.model.log.wall_seconds,
                    "steps": chunk.model.log.steps,
                },
                "model": chunk.model.state_dict(),
            }
        save_state_npz(path, {
            "format": self._SAVE_FORMAT,
            "version": self._SAVE_VERSION,
            "kind": self._kind,
            "config": asdict(self.config),
            "cpu_seconds": self.cpu_seconds,
            "wall_seconds": self.wall_seconds,
            "backend": self.backend,
            "spent_epsilon": self.spent_epsilon,
            "encoder": self._encoder.state_dict(),
            "chunks": chunks,
        })

    @classmethod
    def load(cls, path) -> "NetShare":
        """Rebuild a trained model saved with :meth:`save`.

        The loaded model generates bit-identically to the one that was
        saved (given the same ``generate`` seed).
        """
        state = load_state_npz(path)
        if state.get("format") != cls._SAVE_FORMAT:
            raise ValueError(f"{path} is not a NetShare model archive")
        cfg_data = dict(state["config"])
        # Older archives name an executor backend; jobs and hosts now
        # select it.
        cfg_data.pop("backend", None)
        dp_data = cfg_data.pop("dp", None)
        config = NetShareConfig(
            dp=DpSgdConfig(**dp_data) if dp_data is not None else None,
            **cfg_data)
        model = cls(config)
        model._kind = str(state["kind"])
        model._encoder = FlowTensorEncoder.from_state(state["encoder"])
        gan_config = model._gan_config(model._encoder)
        model._chunks = []
        for position in range(len(state["chunks"])):
            entry = state["chunks"][f"chunk_{position}"]
            log = TrainingLog(
                d_loss=[float(v) for v in entry["log"]["d_loss"]],
                g_loss=[float(v) for v in entry["log"]["g_loss"]],
                wall_seconds=float(entry["log"]["wall_seconds"]),
                steps=int(entry["log"]["steps"]),
            )
            index = int(entry["index"])
            model._chunks.append(_TrainedChunk(
                index=index,
                model=DoppelGANger.from_state(
                    gan_config, entry["model"],
                    seed=config.seed + index, log=log),
                window=tuple(float(v) for v in entry["window"]),
                n_flows=int(entry["n_flows"]),
                n_records=int(entry["n_records"]),
            ))
        model.cpu_seconds = float(state["cpu_seconds"])
        model.wall_seconds = float(state["wall_seconds"])
        model.backend = (None if state["backend"] is None
                         else str(state["backend"]))
        model.spent_epsilon = (None if state["spent_epsilon"] is None
                               else float(state["spent_epsilon"]))
        return model

    # ------------------------------------------------------------------
    @staticmethod
    def _generate_seeds(base_seed: int, round_index: int,
                        chunk_index: int) -> Tuple[int, int]:
        """Derive one chunk's (sample, decode) seeds for one retry round.

        Deterministic in ``(seed, round, chunk index)`` only — never in
        scheduling order — so every backend produces bit-identical
        output, and every retry round draws a fresh stream (a
        degenerate round can't resample the same empty batch forever).
        """
        entropy = np.random.SeedSequence(
            [base_seed & (2**63 - 1), round_index, chunk_index])
        sample, decode = entropy.generate_state(2, dtype=np.uint64)
        return int(sample), int(decode)

    def generate(self, n_records: int, seed: Optional[int] = None,
                 jobs: Optional[int] = None,
                 hosts: Optional[str] = None):
        """Generate a synthetic trace with roughly ``n_records`` records.

        Per-chunk sampling and decoding fan out as
        :class:`~repro.runtime.chunk_tasks.GenerateTask` work items
        through the same executor layer as training: ``jobs`` /
        ``hosts`` default to the fitted config's values, and results
        are bit-identical across backends because every task's seeds
        derive from ``(seed, retry round, chunk index)``.

        The round loop itself lives in :class:`GenerateSession`; this
        method drives one session to completion on its own executor.
        Callers that pool many requests onto one executor (the
        ``repro.serve`` daemon) drive sessions directly and get
        bit-identical output, because a session's tasks and seeds never
        depend on what else shares the batch.
        """
        session = GenerateSession(self, n_records, seed=seed)
        cfg = self.config
        wall_start = time.perf_counter()
        with get_executor(cfg.jobs if jobs is None else jobs,
                          cfg.hosts if hosts is None else hosts
                          ) as executor, \
                span("netshare.generate", backend=executor.name,
                     target=n_records):
            emit_event("generate_start", model="netshare",
                       backend=executor.name, jobs=executor.jobs,
                       target=n_records, chunks=len(self._chunks))
            while not session.done:
                tasks = session.plan_round()
                session.consume_round(
                    executor.map_tasks(generate_chunk, tasks))
            self.generate_wall_seconds = time.perf_counter() - wall_start
            self.generate_dispatch_bytes = executor.dispatch_bytes
        emit_event("generate_end", model="netshare",
                   wall_seconds=self.generate_wall_seconds,
                   records=session.produced,
                   rounds=len(session.rounds_log))
        return session.finish()


class GenerateSession:
    """Resumable plan/consume state machine for one ``generate`` call.

    One session owns everything :meth:`NetShare.generate` used to keep
    as loop-local state: the frozen encoder/model blobs, the
    records-per-flow estimates, the produced pieces, and the per-round
    accept/reject log.  Each round, :meth:`plan_round` emits the
    :class:`~repro.runtime.chunk_tasks.GenerateTask` list for the
    current shortfall and :meth:`consume_round` folds the results back
    in — *who* executes the tasks (a private executor, a shared daemon
    pool, interleaved with other sessions' tasks) is invisible to the
    session, because every task's seeds derive from
    ``(seed, round, chunk index)`` and every size is pre-bucketed by
    :func:`repro.nn.bucket_size`.  That is the serving-layer contract:
    a coalesced request is bit-identical to an offline
    ``NetShare.generate`` with the same seed.
    """

    #: Top-up rounds before a session gives up (matches the historical
    #: ``generate`` retry cap).
    MAX_ROUNDS = 8

    def __init__(self, model: NetShare, n_records: int,
                 seed: Optional[int] = None, *,
                 encoder_state=None, model_states=None):
        if model._encoder is None or not model._chunks:
            raise RuntimeError("NetShare is not fitted; call fit() first")
        if n_records < 1:
            raise ValueError("must generate at least one record")
        self.model = model
        self.n_records = int(n_records)
        cfg = model.config
        self.base_seed = int(cfg.seed if seed is None else seed)
        self._rng = np.random.default_rng(self.base_seed)
        self._gan_config = model._gan_config(model._encoder)
        self._total_records = sum(c.n_records for c in model._chunks)
        # Frozen once per session: every task (across chunks and retry
        # rounds) shares the same pre-pickled encoder/model blobs.
        # Callers with a hot registry (repro.serve) pass pre-frozen
        # handles in, skipping even the once-per-call pickling.
        self.encoder_state = (freeze_state(model._encoder.state_dict())
                              if encoder_state is None else encoder_state)
        self.model_states = (dict(model_states)
                             if model_states is not None else
                             {c.index: freeze_state(c.model.state_dict())
                              for c in model._chunks})
        # Flows emit a variable number of records (generation flags),
        # so sessions top up over a few rounds until the target count
        # is reached.  The records-per-flow estimate starts from the
        # real data and is recalibrated from what the generator emits.
        self._rpf_estimate = {
            c.index: min(max(c.n_records / c.n_flows, 1.0),
                         float(cfg.max_timesteps))
            for c in model._chunks
        }
        self.pieces: List = []
        self.produced = 0
        self.round_index = 0
        # Per-round accept/reject diagnostics: kept unconditionally (a
        # handful of dicts) so the exhaustion error in finish() can say
        # *what happened each round*, and journaled as generate_round
        # events when telemetry is on.
        self.rounds_log: List[Dict[str, float]] = []
        self._round_start: Optional[float] = None

    @property
    def shortfall(self) -> int:
        return self.n_records - self.produced

    @property
    def done(self) -> bool:
        """True once the target is met or the retry budget is spent."""
        return self.shortfall <= 0 or self.round_index >= self.MAX_ROUNDS

    def plan_round(self) -> List[GenerateTask]:
        """Build this round's per-chunk tasks for the current shortfall
        (empty once the session is done)."""
        if self.done:
            return []
        self._round_start = time.perf_counter()
        tasks = []
        for chunk in self.model._chunks:
            share = chunk.n_records / self._total_records
            # Bucketed task sizes: bucket values are fixed points of
            # the sampler's own padding, so every round and chunk with
            # a similar shortfall hits the same warm inference tape in
            # its worker instead of recording a new one.
            n_flows = bucket_size(max(1, int(np.ceil(
                self.shortfall * share
                / self._rpf_estimate[chunk.index] * 1.1))))
            sample_seed, decode_seed = NetShare._generate_seeds(
                self.base_seed, self.round_index, chunk.index)
            tasks.append(GenerateTask(
                chunk_index=chunk.index, gan_config=self._gan_config,
                model_state=self.model_states[chunk.index],
                encoder_state=self.encoder_state, window=chunk.window,
                n_flows=n_flows, sample_seed=sample_seed,
                decode_seed=decode_seed,
            ))
        return tasks

    def consume_round(self, results) -> None:
        """Fold one round's :class:`~repro.runtime.chunk_tasks.
        GeneratePiece` results (in task order) back into the session."""
        accepted = 0
        round_records = 0
        n_tasks = 0
        for piece in results:
            n_tasks += 1
            # A degenerate model can emit flows whose every timestep is
            # inactive; the task reports those as trace=None so an
            # empty piece never poisons the concatenate in finish().
            if piece.trace is None:
                continue
            accepted += 1
            round_records += len(piece.trace)
            self.pieces.append(piece.trace)
            self.produced += len(piece.trace)
            self._rpf_estimate[piece.chunk_index] = max(
                len(piece.trace) / piece.n_flows, 1.0)
        round_seconds = (time.perf_counter() - self._round_start
                         if self._round_start is not None else 0.0)
        self.rounds_log.append({
            "round": self.round_index, "tasks": n_tasks,
            "accepted": accepted,
            "rejected": n_tasks - accepted,
            "records": round_records,
            "shortfall": max(self.n_records - self.produced, 0),
            "seconds": round(round_seconds, 6),
            "samples_per_sec": round(round_records / round_seconds, 2)
            if round_seconds > 0 else 0.0,
        })
        emit_event("generate_round", **self.rounds_log[-1])
        self.round_index += 1

    def finish(self):
        """Concatenate, post-process, and trim the session's output."""
        if not self.pieces:
            per_round = "; ".join(
                f"round {entry['round']}: {entry['accepted']}/{entry['tasks']}"
                " chunks accepted, "
                f"{entry['rejected']} rejected, +{entry['records']} records"
                for entry in self.rounds_log)
            raise RuntimeError(
                "generation produced no records after "
                f"{len(self.rounds_log)} rounds: every chunk model decoded "
                f"to an empty trace (degenerate generator?) [{per_round}]; "
                "retrain with more epochs or a different seed")
        trace = type(self.pieces[0]).concatenate(self.pieces)
        if isinstance(trace, PacketTrace):
            trace = finalize_packet_trace(trace, rng=self._rng)
        else:
            trace = finalize_flow_trace(trace)
        if len(trace) > self.n_records:
            keep = np.sort(self._rng.choice(
                len(trace), size=self.n_records, replace=False))
            trace = trace.subset(keep)
        return trace
