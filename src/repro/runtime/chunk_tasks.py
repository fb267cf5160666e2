"""Stateless, picklable training/generation tasks for the executor layer.

Each task bundles *everything* a worker needs for one unit of work:
encoded tensors, the model config, an optional warm-start
``state_dict`` (the Insight-3 seed model), and the RNG seed.  Workers
never touch shared state, so a task computes the same result on any
backend — seeds are derived from the model config (e.g.
``cfg.seed + chunk_index``), never from scheduling order.

Tasks are built from plain values — arrays, ``EncodedFlows``, state
dicts — and never name a transport.  Two things keep dispatch cheap:

* **Frozen states** — a ``state_dict`` re-pickled into every task
  would dominate fine-tune dispatch.  :func:`freeze_state` serialises
  it into a content-hash keyed :class:`FrozenState` that every task
  shares: ``fit`` freezes its warm-start state once per call, and a
  ``NetShare`` freezes its encoder and chunk states once, when its
  first generate session opens.  :func:`thaw_state` is the one
  decoder and keeps nothing: a fine-tune task decodes its warm-start
  dict each time it runs, and a generate task decodes a state once per
  process into the model or encoder it caches, and keeps only that.
* **Executor staging** — the executor alone decides what crosses a
  process boundary: :func:`~repro.runtime.serialization.pack_tasks`
  names the encoded tensors, frozen payloads and top-level arrays, the
  process pool stages them in shared memory kept for its lifetime (the
  ``remote`` backend ships them to its hosts), and each worker
  rebuilds plain views before it calls the task function.

Results travel back as plain ``state_dict`` arrays plus the training
log (or, for generation tasks, as a decoded trace piece); the
orchestrator reconstructs live models with ``DoppelGANger.from_state``
/ ``RowGan`` + ``load_state_dict``.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.flow_encoder import EncodedFlows, FlowTensorEncoder
from ..gan.doppelganger import DgConfig, DoppelGANger, TrainingLog
from ..privacy.dpsgd import DpSgdConfig
from ..telemetry.spans import span
from ..telemetry.state import STATE

if TYPE_CHECKING:  # runtime import would be circular (rowgan -> netshare
    # -> chunk_tasks); annotations are strings under future-annotations.
    from ..baselines.rowgan import ColumnSpec, RowGanConfig

__all__ = [
    "FrozenState",
    "freeze_state",
    "thaw_state",
    "ChunkTask",
    "ChunkResult",
    "train_chunk",
    "GenerateTask",
    "GeneratePiece",
    "generate_chunk",
    "RowGanTask",
    "RowGanResult",
    "train_rowgan",
    "RowGanSampleTask",
    "sample_rowgan",
]

_CHUNK_MODES = ("fit", "fine_tune", "fit_dp")


# ----------------------------------------------------------------------
# Frozen state: serialize once per state, decode in one place.

@dataclass(frozen=True)
class FrozenState:
    """A nested ``state_dict`` pre-pickled for cheap, shared dispatch.

    ``payload`` holds the pickled bytes (inside a pool or host worker,
    a byte view of the staged block that carries them).
    ``content_hash`` keys the per-process model and encoder caches, so
    identical states — however many tasks, rounds, or calls reference
    them — are built into a model or encoder once per process.
    """

    content_hash: str
    payload: bytes

    def thaw(self) -> Dict[str, Any]:
        return thaw_state(self)


_CACHE_LIMIT = 32


def _trim(cache: Dict[str, Any]) -> None:
    while len(cache) > _CACHE_LIMIT:
        cache.pop(next(iter(cache)))


def freeze_state(state: Optional[Dict[str, Any]]) -> Optional[FrozenState]:
    """Serialize a nested state dict into the handle its tasks share.

    Freeze a state once and hand that one handle to every task.  A
    ``FrozenState`` and ``None`` pass through unchanged.
    """
    if state is None or isinstance(state, FrozenState):
        return state
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    return FrozenState(content_hash=hashlib.sha256(payload).hexdigest(),
                       payload=payload)


def thaw_state(state: Union[None, Dict[str, Any], FrozenState]
               ) -> Optional[Dict[str, Any]]:
    """Return the plain nested dict behind any state representation.

    This is the one place a frozen payload is decoded: every call on a
    :class:`FrozenState` decodes a fresh dict, and nothing is kept.
    """
    if isinstance(state, FrozenState):
        return pickle.loads(state.payload)
    return state


def _cached(cache: Dict[str, Any], counter: str, state, build):
    """``build`` applied to the plain value behind ``state``.

    A plain value (or ``None``) is built directly.  A frozen state is
    decoded (:func:`thaw_state`) and built once per process: ``cache``
    keeps only what ``build`` made of it, under its content hash, and
    ``counter`` (``.hits``/``.misses``) counts the lookups.
    """
    if not isinstance(state, FrozenState):
        return build(state)
    built = cache.get(state.content_hash)
    if built is None:
        if STATE.enabled:
            STATE.registry.counter(f"{counter}.misses").inc()
        built = build(thaw_state(state))
        cache[state.content_hash] = built
        _trim(cache)
    elif STATE.enabled:
        STATE.registry.counter(f"{counter}.hits").inc()
    return built


# ----------------------------------------------------------------------
# Chunk training tasks (NetShare's Insight-3 parallelism).

@dataclass
class ChunkTask:
    """One chunk of the time-sliced DoppelGANger training (Insight 3)."""

    chunk_index: int
    encoded: EncodedFlows
    gan_config: DgConfig
    seed: int                     # model construction + training seed
    epochs: int
    mode: str = "fit"             # 'fit' | 'fine_tune' | 'fit_dp'
    init_state: Union[None, Dict[str, np.ndarray], FrozenState] = None
    dp_config: Optional[DpSgdConfig] = None

    def __post_init__(self):
        if self.mode not in _CHUNK_MODES:
            raise ValueError(f"mode must be one of {_CHUNK_MODES}")
        if self.mode == "fine_tune" and self.init_state is None:
            raise ValueError("fine_tune tasks need an init_state")
        if self.mode == "fit_dp" and self.dp_config is None:
            raise ValueError("fit_dp tasks need a dp_config")


@dataclass
class ChunkResult:
    """Trained weights + timing for one chunk, in task order."""

    chunk_index: int
    state: Dict[str, np.ndarray]
    log: TrainingLog
    train_seconds: float


def train_chunk(task: ChunkTask) -> ChunkResult:
    """Pure task function: build, (warm-start,) train, return weights.

    Module-level and side-effect-free so it pickles for any backend.
    """
    with span("train_chunk", chunk=task.chunk_index, mode=task.mode):
        init_state = thaw_state(task.init_state)
        model = DoppelGANger(task.gan_config, seed=task.seed)
        start = time.perf_counter()
        if task.mode == "fit_dp":
            if init_state is not None:
                model.load_state_dict(init_state)
            model.fit_dp(task.encoded, epochs=task.epochs,
                         dp_config=task.dp_config, seed=task.seed)
        elif task.mode == "fine_tune":
            model.load_state_dict(init_state)
            model.fine_tune(task.encoded, epochs=task.epochs)
        else:
            model.fit(task.encoded, epochs=task.epochs)
        elapsed = time.perf_counter() - start
    # The model dies with this task; free its tapes before the next
    # task in this process records its own.
    model.release_tapes()
    return ChunkResult(
        chunk_index=task.chunk_index,
        state=model.state_dict(),
        log=model.log,
        train_seconds=elapsed,
    )


# ----------------------------------------------------------------------
# Chunk generation tasks: NetShare.generate fans per-chunk sampling +
# decoding through the same executor as training.

@dataclass
class GenerateTask:
    """Sample ``n_flows`` from one trained chunk model and decode them.

    ``sample_seed`` drives the GAN's noise/Gumbel draws and
    ``decode_seed`` the decoder's bootstrap; both are derived by the
    orchestrator from ``(generate seed, retry round, chunk index)`` so
    every backend — and every retry round — produces bit-identical,
    non-repeating output.

    ``n_flows`` arrives pre-bucketed (:func:`repro.nn.tape.
    bucket_size` in ``GenerateSession.plan_round``): together with the
    content-hash model cache below — which keeps built models, and
    therefore their recorded inference tapes, alive across tasks in a
    worker — every task of a similar size replays the same warm
    forward-only tape instead of recording per request.
    """

    chunk_index: int
    gan_config: DgConfig
    model_state: Union[Dict[str, np.ndarray], FrozenState]
    encoder_state: Union[Dict[str, Any], FrozenState]
    window: Tuple[float, float]
    n_flows: int
    sample_seed: int
    decode_seed: int


@dataclass
class GeneratePiece:
    """One chunk's decoded contribution (or None when degenerate)."""

    chunk_index: int
    n_flows: int                 # flows requested from the model
    trace: Optional[Any]         # FlowTrace | PacketTrace | None
    sample_seconds: float

    def __len__(self) -> int:
        return 0 if self.trace is None else len(self.trace)


# Per-process caches keyed by frozen-state content hash: workers (and
# the serial backend) build the decoder/model once, not per task, and
# keep only what they built.
_ENCODER_CACHE: Dict[str, FlowTensorEncoder] = {}
_MODEL_CACHE: Dict[str, DoppelGANger] = {}


def generate_chunk(task: GenerateTask) -> GeneratePiece:
    """Pure task function: sample one chunk's flows and decode them.

    Returns ``trace=None`` when the model emits no active timestep (a
    degenerate generator) — the orchestrator treats that as an empty
    contribution and retries with the next round's seeds.
    """
    start = time.perf_counter()
    with span("generate_chunk", chunk=task.chunk_index,
              n_flows=task.n_flows):
        model = _cached(
            _MODEL_CACHE, "runtime.model_cache", task.model_state,
            lambda state: DoppelGANger.from_state(
                task.gan_config, state, seed=task.sample_seed))
        encoded = model.generate(task.n_flows, seed=task.sample_seed)
        trace = None
        if np.any(encoded.gen_flags > 0.5):
            encoder = _cached(_ENCODER_CACHE, "runtime.encoder_cache",
                              task.encoder_state, FlowTensorEncoder.from_state)
            piece = encoder.decode(
                encoded, task.window,
                rng=np.random.default_rng(task.decode_seed))
            if len(piece) > 0:
                trace = piece
    return GeneratePiece(
        chunk_index=task.chunk_index,
        n_flows=task.n_flows,
        trace=trace,
        sample_seconds=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# Row-GAN tasks: the epoch-parallel baselines (E-WGAN-GP et al.) train
# one tabular model per measurement epoch; each epoch is one task so
# baseline comparisons share the exact same runtime as NetShare.

@dataclass
class RowGanTask:
    """Train one RowGan on one epoch's rows."""

    index: int
    columns: List[ColumnSpec]
    config: RowGanConfig
    seed: int
    rows: np.ndarray
    epochs: int
    conditions: Optional[np.ndarray] = None


@dataclass
class RowGanResult:
    index: int
    state: Dict[str, np.ndarray]
    train_seconds: float


def train_rowgan(task: RowGanTask) -> RowGanResult:
    # Imported lazily: repro.baselines imports repro.core.netshare,
    # which imports this module — a top-level import would be circular.
    from ..baselines.rowgan import RowGan

    with span("train_rowgan", index=task.index):
        gan = RowGan(task.columns, task.config, seed=task.seed)
        gan.fit(task.rows, epochs=task.epochs, conditions=task.conditions)
    return RowGanResult(
        index=task.index,
        state=gan.state_dict(),
        train_seconds=gan.train_seconds,
    )


@dataclass
class RowGanSampleTask:
    """Draw ``n_rows`` from one trained RowGan (epoch-parallel sampling)."""

    index: int
    columns: List[ColumnSpec]
    config: RowGanConfig
    seed: int                     # model construction seed
    state: Union[Dict[str, np.ndarray], FrozenState]
    n_rows: int
    sample_seed: int


def sample_rowgan(task: RowGanSampleTask) -> np.ndarray:
    from ..baselines.rowgan import RowGan

    with span("sample_rowgan", index=task.index, n_rows=task.n_rows):
        gan = RowGan(task.columns, task.config, seed=task.seed)
        gan.load_state_dict(thaw_state(task.state))
        return gan.generate(task.n_rows, seed=task.sample_seed)
