"""repro.runtime: the parallel chunk-training and generation runtime.

Work across the codebase — NetShare's per-chunk fine-tuning
(Insight 3), per-chunk synthesis in ``NetShare.generate``, and the
epoch-parallel tabular baselines — is expressed as stateless,
picklable tasks mapped through one ``Executor.map_tasks()`` interface
with interchangeable ``serial``, ``multiprocessing`` and ``remote``
backends, which :func:`~repro.runtime.executor.get_executor` picks
from ``jobs`` and ``hosts`` alone.  Callers build tasks from plain
values; the executor alone decides what crosses a process boundary.
:func:`~repro.runtime.serialization.pack_tasks` names each call's
bulk payloads once (content-hash blob manifests plus a deduplicated
blob table): the ``multiprocessing`` pool stages the table in a
per-call shared-memory arena (:mod:`repro.runtime.shm`), and the
``remote`` backend (:mod:`repro.runtime.remote`) ships it to
long-lived worker hosts (``python -m repro.runtime.remote_worker``)
over length-prefixed socket frames.  See
:mod:`repro.runtime.executor` for the determinism contract and
:mod:`repro.runtime.chunk_tasks` for the task functions.

The ``multiprocessing`` executor and a ``--jobs N`` worker host
drive the same pipe-worker pool.  The remote coordinator/host classes
are not imported here (``from repro.runtime import remote``), and
:func:`~repro.runtime.executor.get_executor` imports them only to
build a ``remote`` executor, so the single-machine path never loads
the socket layer.
"""

from .executor import (
    HOSTS_ENV_VAR,
    JOBS_ENV_VAR,
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    get_executor,
    resolve_jobs,
)
from .chunk_tasks import (
    ChunkResult,
    ChunkTask,
    FrozenState,
    GeneratePiece,
    GenerateTask,
    RowGanResult,
    RowGanSampleTask,
    RowGanTask,
    freeze_state,
    generate_chunk,
    sample_rowgan,
    thaw_state,
    train_chunk,
    train_rowgan,
)
from .serialization import (
    BlobManifest,
    flatten_state,
    load_state_npz,
    manifest_hashes,
    pack_tasks,
    save_state_npz,
    unflatten_state,
    unpack_task,
)
from .shm import (
    ArrayRef,
    SharedArena,
    block_exists,
)

__all__ = [
    "JOBS_ENV_VAR",
    "HOSTS_ENV_VAR",
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "get_executor",
    "resolve_jobs",
    "ChunkTask",
    "ChunkResult",
    "GenerateTask",
    "GeneratePiece",
    "RowGanTask",
    "RowGanResult",
    "RowGanSampleTask",
    "FrozenState",
    "freeze_state",
    "thaw_state",
    "train_chunk",
    "generate_chunk",
    "train_rowgan",
    "sample_rowgan",
    "flatten_state",
    "unflatten_state",
    "save_state_npz",
    "load_state_npz",
    "BlobManifest",
    "pack_tasks",
    "unpack_task",
    "manifest_hashes",
    "ArrayRef",
    "SharedArena",
    "block_exists",
]
