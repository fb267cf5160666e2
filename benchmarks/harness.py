"""Shared benchmark harness: datasets, trained models, synthetic traces.

All heavy artifacts (trained synthesizers, generated traces) are cached
at module level so the per-figure benchmark files can share them.  The
scale knobs can be overridden through environment variables:

* ``REPRO_BENCH_RECORDS``  — records per dataset (default 1200),
* ``REPRO_BENCH_EPOCHS``   — seed-chunk epochs for NetShare and epochs
  for baselines (default 30).

The paper trains on 1M-record subsets on a ten-machine cluster; this
harness reproduces the *shape* of each result at numpy scale (see
DESIGN.md §5 and EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro import NetShare, NetShareConfig
from repro.baselines import (
    NETFLOW_BASELINES,
    PCAP_BASELINES,
    NetShareSynthesizer,
    make_baseline,
)
from repro.datasets import FlowTrace, load_dataset
from repro.runtime import SerialExecutor

BENCH_RECORDS = int(os.environ.get("REPRO_BENCH_RECORDS", 1200))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", 30))
#: sketch-memory scale matched to the bench stream size (paper: KB-scale
#: sketches against 1M records; same pressure ratio here).
SKETCH_SCALE = float(os.environ.get("REPRO_BENCH_SKETCH_SCALE", 0.02))

NETFLOW_DATASETS = ("ugr16", "cidds", "ton")
PCAP_DATASETS = ("caida", "dc", "ca")

_real_cache: Dict[str, object] = {}
_model_cache: Dict[Tuple, object] = {}
_synth_cache: Dict[Tuple, object] = {}
_train_seconds: Dict[Tuple, float] = {}


@contextmanager
def serial_dispatch_meter() -> Iterator[None]:
    """Meter the inline reference the staged backends are judged by.

    The serial backend sends nothing, so it tallies nothing.  While
    this context is open, each ``SerialExecutor.map_tasks`` call adds
    its tasks' pickled sizes to the executor's ``dispatch_bytes`` /
    ``dispatch_tasks``: what the tasks would cost with their tensors
    and states carried inline.
    """
    map_tasks = SerialExecutor.map_tasks

    def metered(self, fn, tasks):
        tasks = list(tasks)
        self.dispatch_bytes += sum(
            len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            for task in tasks)
        self.dispatch_tasks += len(tasks)
        return map_tasks(self, fn, tasks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SerialExecutor, "map_tasks", metered)
        yield


def real_trace(dataset: str, n_records: Optional[int] = None):
    """The cached real trace for one dataset.

    PCAP datasets get twice the record budget: packets are much
    cheaper per *flow* (the GAN's training unit) than NetFlow records.
    """
    if n_records is None:
        n_records = BENCH_RECORDS * (2 if dataset in PCAP_DATASETS else 1)
    n = n_records
    key = f"{dataset}:{n}"
    if key not in _real_cache:
        _real_cache[key] = load_dataset(dataset, n_records=n, seed=0)
    return _real_cache[key]


def netshare_config(dataset: str, **overrides) -> NetShareConfig:
    """NetShare configuration used across the benches."""
    defaults = dict(
        n_chunks=3,
        epochs_seed=2 * BENCH_EPOCHS,
        epochs_fine_tune=max(5, BENCH_EPOCHS // 2),
        max_timesteps=12 if dataset in PCAP_DATASETS else 8,
        anchor_count=128,
        seed=0,
    )
    defaults.update(overrides)
    return NetShareConfig(**defaults)


def trained_model(dataset: str, model_name: str):
    """Train (once) and return a synthesizer for (dataset, model)."""
    key = (dataset, model_name)
    if key in _model_cache:
        return _model_cache[key]
    real = real_trace(dataset)
    start = time.perf_counter()
    if model_name == "NetShare":
        model = NetShareSynthesizer(netshare_config(dataset))
    elif model_name == "NetShare-V0":
        model = NetShareSynthesizer(netshare_config(
            dataset, n_chunks=1, fine_tune_chunks=False))
    else:
        model = make_baseline(model_name, epochs=BENCH_EPOCHS, seed=0)
    model.fit(real)
    _train_seconds[key] = time.perf_counter() - start
    _model_cache[key] = model
    return model


def train_seconds(dataset: str, model_name: str) -> float:
    """Measured training cost; NetShare reports summed per-chunk CPU."""
    model = trained_model(dataset, model_name)
    if isinstance(model, NetShareSynthesizer):
        return model.model.cpu_seconds
    return _train_seconds[(dataset, model_name)]


def train_steps(dataset: str, model_name: str):
    """Deterministic optimisation-step count (NetShare variants only)."""
    model = trained_model(dataset, model_name)
    if isinstance(model, NetShareSynthesizer):
        return sum(c.model.log.steps for c in model.model._chunks)
    return None


def wall_seconds(dataset: str, model_name: str) -> float:
    """Modelled wall-clock (parallel chunks for NetShare)."""
    model = trained_model(dataset, model_name)
    if isinstance(model, NetShareSynthesizer):
        return model.model.wall_seconds
    return _train_seconds[(dataset, model_name)]


def synthetic_trace(dataset: str, model_name: str,
                    n_records: Optional[int] = None):
    """Generate (once) the synthetic trace for (dataset, model)."""
    n = n_records or BENCH_RECORDS
    key = (dataset, model_name, n)
    if key not in _synth_cache:
        model = trained_model(dataset, model_name)
        _synth_cache[key] = model.generate(n, seed=1)
    return _synth_cache[key]


def models_for(dataset: str, include_netshare: bool = True):
    """The §6.1 model list for a dataset's kind."""
    base = (NETFLOW_BASELINES if isinstance(real_trace(dataset), FlowTrace)
            else PCAP_BASELINES)
    return (("NetShare",) + tuple(base)) if include_netshare else tuple(base)


def all_synthetic(dataset: str, include_netshare: bool = True):
    """{model -> synthetic trace} for every §6.1 model of the dataset."""
    return {
        name: synthetic_trace(dataset, name)
        for name in models_for(dataset, include_netshare)
    }
