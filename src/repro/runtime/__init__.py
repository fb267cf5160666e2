"""repro.runtime: the parallel chunk-training and generation runtime.

Work across the codebase — NetShare's per-chunk fine-tuning
(Insight 3), per-chunk synthesis in ``NetShare.generate``, and the
epoch-parallel tabular baselines — is expressed as stateless,
picklable tasks mapped through one ``Executor.map_tasks()`` interface
with interchangeable ``serial``, ``multiprocessing`` and ``remote``
backends.  The ``multiprocessing`` pool is fed through the zero-copy
shared-memory data plane in :mod:`repro.runtime.shm`: bulk tensors
and frozen model states live in a
:class:`~repro.runtime.shm.SharedArena` and tasks carry only tiny
manifests.  The ``remote`` backend (:mod:`repro.runtime.remote`)
extends the same manifest idea across machines: a coordinator ships
content-hash-deduplicated blobs to long-lived worker hosts
(``python -m repro.runtime.remote_worker``) over length-prefixed
socket frames.  See :mod:`repro.runtime.executor` for the determinism
contract and :mod:`repro.runtime.chunk_tasks` for the task functions.

The remote coordinator/host classes import lazily (``from
repro.runtime import remote``) so the single-machine path never loads
the socket layer.
"""

from .executor import (
    BACKEND_ENV_VAR,
    BACKENDS,
    JOBS_ENV_VAR,
    MEASURE_DISPATCH_ENV_VAR,
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    get_executor,
    register_backend,
    resolve_backend,
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
    materialize_encoded,
    sample_rowgan,
    thaw_state,
    train_chunk,
    train_rowgan,
)
from .serialization import (
    ArrayManifest,
    BlobManifest,
    EncodedManifest,
    StateManifest,
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
    SharedEncodedFlows,
    attach_array,
    block_exists,
    detach_all,
    maybe_arena,
    read_shared_bytes,
)

__all__ = [
    "JOBS_ENV_VAR",
    "BACKEND_ENV_VAR",
    "MEASURE_DISPATCH_ENV_VAR",
    "BACKENDS",
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "get_executor",
    "register_backend",
    "resolve_jobs",
    "resolve_backend",
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
    "materialize_encoded",
    "train_chunk",
    "generate_chunk",
    "train_rowgan",
    "sample_rowgan",
    "flatten_state",
    "unflatten_state",
    "save_state_npz",
    "load_state_npz",
    "BlobManifest",
    "ArrayManifest",
    "StateManifest",
    "EncodedManifest",
    "pack_tasks",
    "unpack_task",
    "manifest_hashes",
    "ArrayRef",
    "SharedArena",
    "SharedEncodedFlows",
    "attach_array",
    "read_shared_bytes",
    "block_exists",
    "detach_all",
    "maybe_arena",
]
