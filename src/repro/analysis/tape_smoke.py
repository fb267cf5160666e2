"""Record smoke tapes for every compiled family and verify each one.

``python -m repro.analysis --check-tapes`` drives this module: it runs
a miniature end-to-end pass through every code path that records a
tape — DoppelGANger training (plain and DP-SGD) and generation, the
RowGAN family (conditional, covering bound input buffers), STAN's
fit + autoregressive sampler, and the full per-op program registry
from ``graph_check`` — harvests every tape built along the way with
:func:`repro.nn.tape.collect_tapes`, and runs the static verifier
(:mod:`repro.analysis.tape_check`) over each.  A healthy tree reports
zero findings; any finding names the offending tape, op index, rule,
and (because recording runs with origin tracing on) the source line
that launched the kernel.

Build-time verification is disabled while recording so a bad tape is
*reported* rather than raised mid-fit; the runtime sanitizer smoke
(:func:`run_sanitized_smoke`) then replays a training step with
``REPRO_NN_SANITIZE`` semantics active, proving the poison-and-trap
machinery stays silent on a healthy schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .tape_check import verify_tape

__all__ = ["FAMILIES", "run_tape_checks", "run_sanitized_smoke"]

FAMILIES = ("doppelganger", "rowgan", "stan", "ops")


# ----------------------------------------------------------------------
# tiny workloads, one per compiled family
# ----------------------------------------------------------------------

def _synthetic_flows(n=16, timesteps=4, meta_dim=6, meas_dim=3, seed=0):
    from repro.core.flow_encoder import EncodedFlows

    rng = np.random.default_rng(seed)
    gen_flags = np.zeros((n, timesteps))
    lengths = rng.integers(1, timesteps + 1, size=n)
    for i, length in enumerate(lengths):
        gen_flags[i, :length] = 1.0
    return EncodedFlows(
        metadata=rng.uniform(-1, 1, size=(n, meta_dim)),
        measurements=rng.uniform(0, 1, size=(n, timesteps, meas_dim)),
        gen_flags=gen_flags,
    )


def _record_doppelganger() -> None:
    from repro.gan.doppelganger import DgConfig, DoppelGANger
    from repro.privacy.dpsgd import DpSgdConfig

    config = DgConfig(metadata_dim=6, measurement_dim=3, max_timesteps=4,
                      noise_dim=5, meta_hidden=8, rnn_hidden=8,
                      disc_hidden=8, batch_size=8)
    model = DoppelGANger(config, seed=11)
    data = _synthetic_flows()
    model.fit(data, epochs=1)
    model.fit_dp(data, epochs=1,
                 dp_config=DpSgdConfig(clip_norm=1.0, noise_multiplier=0.5),
                 seed=1)
    model.generate(8, seed=0)


def _record_rowgan() -> None:
    from repro.baselines.rowgan import ColumnSpec, RowGan, RowGanConfig

    columns = [ColumnSpec("scale", 3, "unit"),
               ColumnSpec("proto", 4, "onehot"),
               ColumnSpec("embed", 2, "free")]
    model = RowGan(columns,
                   RowGanConfig(noise_dim=6, hidden=8, disc_hidden=8,
                                condition_dim=2), seed=3)
    rng = np.random.default_rng(0)
    rows = rng.uniform(size=(16, 9))
    conditions = rng.uniform(size=(16, 2))
    model.fit(rows, epochs=1, conditions=conditions)
    # Bound-input coverage: the condition block rides into the replay
    # as a refreshed bind buffer.
    model.generate(5, seed=9, conditions=conditions[:5])


def _record_stan() -> None:
    from repro.baselines.stan import Stan
    from repro.datasets.records import FlowTrace

    n, rng = 20, np.random.default_rng(0)
    trace = FlowTrace(
        src_ip=rng.integers(1, 4, size=n).astype(np.uint32),
        dst_ip=rng.integers(10, 20, size=n).astype(np.uint32),
        src_port=rng.integers(1024, 65535, size=n),
        dst_port=rng.integers(1, 1024, size=n),
        protocol=rng.choice([6, 17], size=n),
        start_time=np.sort(rng.uniform(0, 1e4, size=n)),
        duration=rng.uniform(0, 500, size=n),
        packets=rng.integers(1, 100, size=n),
        bytes=rng.integers(40, 4000, size=n),
    )
    model = Stan(epochs=1, hidden=8, seed=1).fit(trace)
    model.generate(8, seed=5)


def _record_ops() -> None:
    """Drive every registered op program (the same 38-op surface the
    double-backprop checker covers) through one compiled step each."""
    from repro.nn import Tensor, grad
    from repro.nn.functional import gumbel_softmax
    from repro.nn.tape import compiled_step

    from .graph_check import get_op_spec, registered_op_names

    for name in registered_op_names():
        spec = get_op_spec(name)
        run_rng = np.random.default_rng(20260807)
        if name == "gumbel_softmax":
            apply = lambda xs: gumbel_softmax(  # noqa: E731
                xs[0], temperature=0.7, rng=run_rng)
        else:
            apply = spec.apply
        bufs = [np.asarray(a, dtype=np.float64)
                for a in spec.make_inputs()]

        def core():
            leaves = [Tensor(b, requires_grad=True) for b in bufs]
            out = apply(leaves)
            loss = (out * out).sum()
            return [out, loss] + list(grad(loss, leaves))

        step = compiled_step(core, f"tape_smoke.{name}", extract="array")
        key = (name,) + tuple(b.shape for b in bufs)
        step.run(key)   # record
        step.run(key)   # warm replay keeps the tape honest


_RECORDERS = {
    "doppelganger": _record_doppelganger,
    "rowgan": _record_rowgan,
    "stan": _record_stan,
    "ops": _record_ops,
}


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

def _verify_family(family: str) -> Dict:
    from repro.nn.tape import (collect_tapes, configure, configure_verify,
                               invalidate_tapes, trace_origins)

    configure(True)
    configure_verify(False)   # collect findings instead of raising
    trace_origins(True)       # origin lines on every finding
    try:
        with collect_tapes() as tapes:
            _RECORDERS[family]()
        reports = []
        for tape in tapes:
            findings = verify_tape(tape)
            reports.append({
                "label": tape.label,
                "ops": len(tape.plan.post_entries),
                "findings": [f.to_dict() for f in findings],
            })
        return {
            "family": family,
            "tapes": reports,
            "findings": sum(len(r["findings"]) for r in reports),
        }
    finally:
        configure(None)
        configure_verify(None)
        trace_origins(False)
        invalidate_tapes()


def run_tape_checks(families: Optional[List[str]] = None) -> Dict:
    """Record and statically verify smoke tapes for every compiled
    family.  Returns a JSON-ready report; ``report["findings"] == 0``
    is the pass condition."""
    selected = list(families) if families else list(FAMILIES)
    unknown = sorted(set(selected) - set(FAMILIES))
    if unknown:
        raise ValueError(f"unknown tape families: {unknown}")
    family_reports = [_verify_family(f) for f in selected]
    return {
        "families": family_reports,
        "tapes_verified": sum(len(f["tapes"]) for f in family_reports),
        "findings": sum(f["findings"] for f in family_reports),
    }


def run_sanitized_smoke() -> Dict:
    """Replay a compiled training family with the runtime sanitizer
    active: record, then warm-replay under poison-and-trap semantics.
    A healthy schedule is silent; any trap is reported with the tape
    op index and origin."""
    from repro.nn.sanitize import configure_sanitize
    from repro.nn.tape import (TapeSanitizerError, configure,
                               configure_verify, invalidate_tapes,
                               trace_origins)

    configure(True)
    configure_verify(False)
    configure_sanitize(True)
    trace_origins(True)
    try:
        _record_doppelganger()
        return {"ok": True, "error": None}
    except TapeSanitizerError as exc:
        return {"ok": False, "error": str(exc)}
    finally:
        configure(None)
        configure_verify(None)
        configure_sanitize(None)
        trace_origins(False)
        invalidate_tapes()
