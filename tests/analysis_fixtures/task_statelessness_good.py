"""Negative fixture: every field is stateless, picklable payload."""

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.flow_encoder import EncodedFlows
from repro.runtime.chunk_tasks import FrozenState


@dataclass(frozen=True)
class CleanTask:
    chunk_id: int
    seed: int
    label: str
    payload: np.ndarray
    encoded: Optional[EncodedFlows]
    frozen: Optional[FrozenState]
    state: Dict[str, Any]          # Any is fine *inside* a container
    bounds: Tuple[float, float]
    extra: "Optional[bytes]"       # string annotations are parsed too
