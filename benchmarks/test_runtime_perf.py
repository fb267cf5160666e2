"""Runtime performance gate: serial vs the staged process pool.

Measures, for one ≥4-chunk NetShare configuration:

* **fit** — wall seconds, summed per-task cpu seconds, and the pickled
  dispatch-payload bytes of each backend's task lists: the serial
  backend's tasks carry their tensors and states inline, the
  ``multiprocessing`` pool's carry shared-memory manifests (the number
  the zero-copy plane exists to shrink);
* **generate** — wall seconds for sequential (jobs=1) vs parallel
  (jobs=4) per-chunk sampling;
* **infer** — forward-only tape compilation on the sampling path:
  eager-vs-compiled bitwise parity (model-level and end-to-end through
  ``NetShare.generate``), warm ``generate()`` replay speedup (gate:
  >= 1.3x), and the tape hit rate under a mixed request-size schedule
  (gate: >= 50% replays against a cold cache);
* **dp** — the batched per-example DP-SGD critic step against its
  per-example loop oracle at the end-to-end benchmark's CAIDA critic
  size: bitwise parity over a ``fit_dp``, and the warm (replayed) step
  time of both, median and IQR over alternating rounds (gate: the
  median speedup, see ``DP_SPEEDUP_GATE``);
* **placement** — the process pool's in-process placement rule: one
  warm two-worker executor maps three generate tasks per ``n_flows``
  bucket pooled and in-process over alternating rounds, recording the
  wall and CPU of both, the executor's measured fixed cost, and the
  crossover and pay-off multiples ``INLINE_MULTIPLE`` is derived from
  (DESIGN.md §7); only the two placements' bit-identity is gated;
* **telemetry** — fit + generate with the journal off and on over
  alternating rounds (gate: median on/off wall ratio, full scale
  only), output parity, and journal coverage.

Everything lands in ``BENCH_runtime.json`` at the repo root, and the
tests double as the regression gate: chunk weights and generated
traces must be *bit-identical* across both local backends, and staging
must cut dispatch bytes by at least 10× versus pickling the tensors
into every task.

Scale knobs: set ``REPRO_BENCH_SMOKE=1`` for the tiny CI-sized run.
Wall-clock speedup assertions only run on machines with ≥4 CPUs (the
JSON records ``cpus`` so single-core results are interpretable).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from repro import NetShare, NetShareConfig, telemetry
from repro.core.flow_encoder import EncodedFlows
from repro.core.netshare import GenerateSession
from repro.datasets import load_dataset
from repro.gan.doppelganger import DgConfig, DoppelGANger
from repro.nn import tape as nn_tape
from repro.privacy import DpSgdConfig
from repro.runtime import MultiprocessingExecutor, generate_chunk
from repro.runtime import executor as executor_module
from repro.telemetry import load_journal
from repro.telemetry.spans import span

from harness import serial_dispatch_meter

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_runtime.json"
JOURNAL_DIR = REPO_ROOT / "BENCH_journal"

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE", "").strip())
RECORDS = 240 if SMOKE else 600
N_CHUNKS = 4 if SMOKE else 5          # acceptance floor: >= 4 chunks
EPOCHS_SEED = 2 if SMOKE else 6
EPOCHS_FINE_TUNE = 1 if SMOKE else 3
GEN_RECORDS = 120 if SMOKE else 400
JOBS = 4

TRACE_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                 "start_time", "duration", "packets", "bytes")


def _config(jobs: int) -> NetShareConfig:
    return NetShareConfig(
        n_chunks=N_CHUNKS, epochs_seed=EPOCHS_SEED,
        epochs_fine_tune=EPOCHS_FINE_TUNE, ip2vec_public_records=400,
        batch_size=32, seed=0, jobs=jobs,
    )


def _trace_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, col), getattr(b, col))
               for col in TRACE_COLUMNS)


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def _noop_span_ns(iterations: int = 50_000) -> float:
    """Cost of one disabled span() call (telemetry must be off)."""
    assert not telemetry.enabled()
    start = time.perf_counter()
    for _ in range(iterations):
        with span("bench.noop"):
            pass
    return (time.perf_counter() - start) / iterations * 1e9


TAPE_EPOCHS = 4 if SMOKE else 8
TAPE_PROBE_STEPS = 30


def _tape_section() -> dict:
    """Measure the repro.nn.tape plan/execute split.

    Fits the same DoppelGANger twice (``REPRO_NN_TAPE`` off, then on):
    parity is the bitwise oracle.  The warm-step probe times the
    discriminator step after tapes are recorded — replay runs the
    prebuilt closure list with no Tensor dispatch, no graph build, and
    no backward walk — against the identical step on the eager path.
    """
    rng = np.random.default_rng(0)
    flows = EncodedFlows(rng.uniform(size=(96, 6)),
                         rng.uniform(size=(96, 4, 3)),
                         np.ones((96, 4)))
    config = DgConfig(metadata_dim=6, measurement_dim=3, max_timesteps=4,
                      batch_size=32, meta_hidden=32, rnn_hidden=32,
                      disc_hidden=32)

    def fit_model(taped):
        nn_tape.configure(taped)
        model = DoppelGANger(config, seed=1)
        start = time.perf_counter()
        model.fit(flows, epochs=TAPE_EPOCHS)
        return model, time.perf_counter() - start

    try:
        model_eager, wall_eager = fit_model(False)
        nn_tape.reset_tape_stats()
        model_taped, wall_taped = fit_model(True)
        stats = nn_tape.tape_stats()

        parity = (list(model_eager.log.d_loss) == list(model_taped.log.d_loss)
                  and list(model_eager.log.g_loss)
                  == list(model_taped.log.g_loss))
        state_e = model_eager.state_dict()
        state_t = model_taped.state_dict()
        parity = parity and all(np.array_equal(state_e[k], state_t[k])
                                for k in state_e)

        # Warm-step probe: the fit above already recorded this shape
        # signature, so every probed step is a pure replay.
        for _ in range(3):
            model_taped._disc_step(flows, config.batch_size)
        start = time.perf_counter()
        for _ in range(TAPE_PROBE_STEPS):
            model_taped._disc_step(flows, config.batch_size)
        taped_ms = (time.perf_counter() - start) / TAPE_PROBE_STEPS * 1e3

        nn_tape.configure(False)
        for _ in range(3):
            model_taped._disc_step(flows, config.batch_size)
        start = time.perf_counter()
        for _ in range(TAPE_PROBE_STEPS):
            model_taped._disc_step(flows, config.batch_size)
        eager_ms = (time.perf_counter() - start) / TAPE_PROBE_STEPS * 1e3
    finally:
        nn_tape.configure(None)

    requests = stats["hits"] + stats["misses"]
    return {
        "epochs": TAPE_EPOCHS,
        "bit_identical_with_tape": parity,
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_rate": round(stats["hits"] / max(requests, 1), 4),
        "peak_bytes_recorded": stats["bytes_recorded"],
        "peak_bytes_planned": stats["bytes_planned"],
        "peak_bytes_reduction": round(
            stats["bytes_recorded"] / max(stats["bytes_planned"], 1), 2),
        "fit_wall_seconds_eager": round(wall_eager, 3),
        "fit_wall_seconds_taped": round(wall_taped, 3),
        "warm_step_ms_eager": round(eager_ms, 3),
        "warm_step_ms_taped": round(taped_ms, 3),
        # Replay speedup is single-process dispatch elimination, so it
        # holds on any CPU count; cpus is recorded for interpretability
        # (the {value, cpus} convention the parallel gates use).
        "warm_step_speedup": {
            "value": round(eager_ms / max(taped_ms, 1e-9), 2),
            "cpus": os.cpu_count() or 1,
        },
    }


INFER_PROBE_CALLS = 20
#: Service-style request mix: 4 distinct buckets (8/16/32/64) over 10
#: calls, within the tape cache's capacity so eviction cannot thrash.
INFER_MIXED_SIZES = (10, 33, 40, 64, 7, 50, 21, 60, 12, 48)


def _infer_section() -> dict:
    """Measure forward-only tape compilation on the sampling path.

    The same DoppelGANger samples three request sizes (spanning a
    bucket boundary) eagerly (``REPRO_NN_TAPE=0`` oracle), then taped
    cold (recording) and warm (replay): every array must match bit for
    bit.  The warm probe times a bucket-sized ``generate()`` replay
    against the identical eager call, and the mixed-size probe replays
    a service-style request schedule against a cold cache to measure
    how well bucketing collapses request sizes onto warm tapes.
    """
    config = DgConfig(metadata_dim=6, measurement_dim=3, max_timesteps=4,
                      batch_size=32, meta_hidden=32, rnn_hidden=32,
                      disc_hidden=32)
    sizes = (5, 64, 9)
    try:
        model = DoppelGANger(config, seed=1)

        def sample_all():
            return [model.generate(n, seed=i) for i, n in enumerate(sizes)]

        nn_tape.configure(False)
        eager = sample_all()
        nn_tape.configure(True)
        cold = sample_all()   # records one tape per bucket
        warm = sample_all()   # pure replays
        parity = all(
            np.array_equal(got.metadata, want.metadata)
            and np.array_equal(got.measurements, want.measurements)
            and np.array_equal(got.gen_flags, want.gen_flags)
            for run in (cold, warm)
            for got, want in zip(run, eager)
        )

        # Warm replay probe on the 64-bucket recorded above.
        for _ in range(3):
            model.generate(64, seed=99)
        start = time.perf_counter()
        for _ in range(INFER_PROBE_CALLS):
            model.generate(64, seed=99)
        taped_ms = (time.perf_counter() - start) / INFER_PROBE_CALLS * 1e3

        nn_tape.configure(False)
        for _ in range(3):
            model.generate(64, seed=99)
        start = time.perf_counter()
        for _ in range(INFER_PROBE_CALLS):
            model.generate(64, seed=99)
        eager_ms = (time.perf_counter() - start) / INFER_PROBE_CALLS * 1e3

        # Mixed request sizes against a cold cache: bucketing should
        # record once per distinct bucket and replay everything else.
        nn_tape.configure(True)
        nn_tape.reset_tape_stats()
        fresh = DoppelGANger(config, seed=2)
        for i, n in enumerate(INFER_MIXED_SIZES):
            fresh.generate(n, seed=i)
        stats = nn_tape.tape_stats()
        requests = stats["infer_hits"] + stats["infer_misses"]
    finally:
        nn_tape.configure(None)

    return {
        "sample_sizes": list(sizes),
        "bit_identical_with_eager": parity,
        "warm_sample_ms_eager": round(eager_ms, 3),
        "warm_sample_ms_taped": round(taped_ms, 3),
        "warm_sample_speedup": {
            "value": round(eager_ms / max(taped_ms, 1e-9), 2),
            "cpus": os.cpu_count() or 1,
        },
        "mixed_request_sizes": list(INFER_MIXED_SIZES),
        "mixed_tapes_recorded": stats["infer_misses"],
        "mixed_replays": stats["infer_hits"],
        "infer_hit_rate": round(stats["infer_hits"] / max(requests, 1), 4),
    }


def _spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(median, 3), "iqr": round(q3 - q1, 3)}


TAPE_CHECK_ROUNDS = 7
TAPE_CHECK_PROBE_STEPS = 40
#: Warm replay with the sanitizer off, ``Tape.replay`` time / bare
#: closure-loop time, median over ``TAPE_CHECK_ROUNDS`` rounds.
SANITIZE_OFF_GATE = 1.25


def _tape_check_section() -> dict:
    """Measure the tape verifier and the runtime sanitizer.

    Three numbers: (1) the ``--check-tapes`` smoke matrix (every
    compiled family's tapes statically verified, plus the registry
    drift guard) must come back with zero findings; (2) the cost of
    record-time verification, measured directly on a real training
    tape (verification runs once per recording, never on replay);
    (3) warm-replay wall clock of ``Tape.replay`` with the sanitizer
    **off** against a bare ``for op in tape.ops: op()`` loop on the
    same tape, in ``TAPE_CHECK_ROUNDS`` alternating rounds — the gate
    asserts the sanitizer plumbing costs nothing when disabled — with
    the sanitizer-on overhead recorded for interpretability.
    """
    from repro.analysis.registry_sync import check_registry_sync
    from repro.analysis.tape_check import verify_tape
    from repro.analysis.tape_smoke import run_tape_checks
    from repro.nn import Dense, SGD, grad, tensor
    from repro.nn.sanitize import configure_sanitize
    from repro.nn.tape import collect_tapes, compiled_step, k_gather, \
        taped_draw

    smoke = run_tape_checks()
    sync = check_registry_sync()

    try:
        nn_tape.configure(True)
        rng = np.random.default_rng(0)
        data = rng.uniform(size=(256, 24))
        target = rng.uniform(size=(256, 8))
        net = Dense(24, 8, "tanh", rng=np.random.default_rng(1))
        opt = SGD(net.parameters(), lr=0.05)
        draw = np.random.default_rng(2)

        def core(b):
            idx = taped_draw(lambda: draw.integers(0, len(data), size=b))
            x = tensor(k_gather(data, idx))
            y = tensor(k_gather(target, idx))
            loss = (net(x) - y).square().mean()
            opt.step(grad(loss, net.parameters()))
            return loss

        step = compiled_step(core, "bench.tape_check")
        with collect_tapes() as tapes:
            step.run((32,), 32)
        tape = tapes[0]

        # Record-time verification cost: the verifier runs once per
        # recording, so per-tape milliseconds is the whole story.
        start = time.perf_counter()
        for _ in range(10):
            findings = verify_tape(tape)
        verify_ms = (time.perf_counter() - start) / 10 * 1e3
        assert findings == []

        def bare():
            # The replay body from before the sanitizer existed.
            for op in tape.ops:
                op()

        def probe_ms(replay):
            start = time.perf_counter()
            for _ in range(TAPE_CHECK_PROBE_STEPS):
                replay()
            return ((time.perf_counter() - start)
                    / TAPE_CHECK_PROBE_STEPS * 1e3)

        configure_sanitize(False)
        variants = {"bare": bare, "replay": tape.replay}
        for replay in variants.values():
            for _ in range(5):
                replay()
        replay_ms = {v: [] for v in variants}
        for _ in range(TAPE_CHECK_ROUNDS):
            for v, replay in variants.items():
                replay_ms[v].append(probe_ms(replay))
        configure_sanitize(True)
        tape.replay()                      # builds the poison schedule
        sanitized_ms = probe_ms(tape.replay)
    finally:
        configure_sanitize(None)
        nn_tape.configure(None)

    off_ms = replay_ms["replay"]
    overhead = _spread([off / max(plain, 1e-9) for off, plain
                        in zip(off_ms, replay_ms["bare"])])
    return {
        "tapes_verified": smoke["tapes_verified"],
        "findings": smoke["findings"],
        "families": [f["family"] for f in smoke["families"]],
        "registry_issues": len(sync["issues"]),
        "kernels_launched": len(sync["kernels_launched"]),
        "kernels_declared": len(sync["kernels_declared"]),
        "verify_ms_per_tape": round(verify_ms, 3),
        "verified_tape_ops": len(tape.plan.post_entries),
        "rounds": TAPE_CHECK_ROUNDS,
        "replays_per_round": TAPE_CHECK_PROBE_STEPS,
        "warm_step_ms_plain": _spread(replay_ms["bare"]),
        "warm_step_ms_sanitize_off": _spread(off_ms),
        "warm_step_ms_sanitized": round(sanitized_ms, 3),
        "sanitize_off_overhead": {
            "value": overhead["median"], "iqr": overhead["iqr"],
            "gate": SANITIZE_OFF_GATE, "cpus": os.cpu_count() or 1,
        },
        "sanitizer_overhead": round(
            sanitized_ms / max(np.median(off_ms), 1e-9), 2),
    }


DP_ROUNDS = 7
DP_PROBE_STEPS = 10
#: Warm DP critic step, loop oracle time / batched time.  Set from the
#: measured spread: on a 2-vCPU Xeon VM, 7 runs of this section gave
#: medians 1.54-1.65 (per-run IQR 0.06-0.26).  The gate sits twice the
#: spread of those medians below the lowest one, and well above the
#: 1.0 a return to one pass per example would measure.
DP_SPEEDUP_GATE = 1.3


def _dp_section() -> dict:
    """Measure the batched per-example DP-SGD critic step.

    Sizes follow the CAIDA model of ``benchmarks/e2e`` (12 timesteps,
    batch 32, 38,786 critic parameters).  Parity: a short ``fit_dp``
    with the batched pass and with the loop oracle
    (``_dp_critic_gradients_loop``) must agree on every loss and
    weight bit.  Timing: both variants record their tapes, then run
    ``DP_ROUNDS`` alternating rounds of ``DP_PROBE_STEPS`` warm steps;
    the first (recording) step is kept as information.
    """
    rng = np.random.default_rng(0)
    n, steps, meta, meas = 160, 12, 82, 5
    flags = (np.arange(steps)[None, :]
             < rng.integers(1, steps + 1, size=(n, 1))).astype(float)
    flows = EncodedFlows(rng.uniform(-1, 1, size=(n, meta)),
                         rng.uniform(size=(n, steps, meas)), flags)
    config = DgConfig(metadata_dim=meta, measurement_dim=meas,
                      max_timesteps=steps)
    dp = DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0)

    def model(variant):
        gan = DoppelGANger(config, seed=1)
        if variant == "loop":
            gan._dp_critic_gradients = gan._dp_critic_gradients_loop
        return gan

    def fit(variant):
        gan = model(variant)
        gan.fit_dp(flows, epochs=1, dp_config=dp, seed=2)
        return gan

    variants = ("batched", "loop")
    try:
        nn_tape.configure(True)
        fitted = {v: fit(v) for v in variants}
        a, b = (fitted[v] for v in variants)
        state_a, state_b = a.state_dict(), b.state_dict()
        parity = (a.log.d_loss == b.log.d_loss
                  and a.log.g_loss == b.log.g_loss
                  and all(np.array_equal(state_a[k], state_b[k])
                          for k in state_a))

        models = {v: model(v) for v in variants}
        noise = {v: np.random.default_rng(3) for v in variants}
        cold_ms = {}
        for v, gan in models.items():
            start = time.perf_counter()
            gan._dp_disc_step(flows, dp, noise[v])
            cold_ms[v] = (time.perf_counter() - start) * 1e3
            gan._dp_disc_step(flows, dp, noise[v])
        warm_ms = {v: [] for v in variants}
        for _ in range(DP_ROUNDS):
            for v, gan in models.items():
                start = time.perf_counter()
                for _ in range(DP_PROBE_STEPS):
                    gan._dp_disc_step(flows, dp, noise[v])
                warm_ms[v].append((time.perf_counter() - start)
                                  / DP_PROBE_STEPS * 1e3)
    finally:
        nn_tape.configure(None)

    ratios = [loop / max(batched, 1e-9) for loop, batched
              in zip(warm_ms["loop"], warm_ms["batched"])]
    speedup = _spread(ratios)
    return {
        "critic_params": sum(p.size for p in models["batched"]._d_params),
        "batch_size": config.batch_size,
        "rounds": DP_ROUNDS,
        "steps_per_round": DP_PROBE_STEPS,
        "bit_identical_with_loop": parity,
        "warm_step_ms_batched": _spread(warm_ms["batched"]),
        "warm_step_ms_loop": _spread(warm_ms["loop"]),
        "record_step_ms_batched": round(cold_ms["batched"], 1),
        "record_step_ms_loop": round(cold_ms["loop"], 1),
        "warm_step_speedup": {
            "value": speedup["median"], "iqr": speedup["iqr"],
            "gate": DP_SPEEDUP_GATE, "cpus": os.cpu_count() or 1,
        },
    }


TELEMETRY_ROUNDS = 5
#: Fit + generate wall with the journal on / off, median over
#: ``TELEMETRY_ROUNDS`` alternating rounds (a 5% overhead budget).
TELEMETRY_OVERHEAD_GATE = 1.05

PLACEMENT_JOBS = 2
PLACEMENT_TASKS = 3
#: ``n_flows`` buckets; at most ``_MAX_TAPES`` of them, so every chunk
#: model replays a warm inference tape in every process.
PLACEMENT_SIZES = (16, 64, 128, 256)
PLACEMENT_ROUNDS = 9


def _pieces_equal(a, b) -> bool:
    return all(x.n_flows == y.n_flows
               and (x.trace is None) == (y.trace is None)
               and (x.trace is None or _trace_equal(x.trace, y.trace))
               for x, y in zip(a, b))


def _cpu_seconds(pids) -> float:
    """CPU seconds used so far by this process and by the processes
    ``pids``, every thread (the latter from Linux ``schedstat``)."""
    nanoseconds = sum(int(stat.read_text().split()[0]) for pid in pids
                      for stat in Path(f"/proc/{pid}/task").glob(
                          "*/schedstat"))
    return time.process_time() + nanoseconds / 1e9


def _placement_section(model: NetShare) -> dict:
    """Measure what the pool's placement rule decides between.

    One warm ``PLACEMENT_JOBS``-worker executor maps ``PLACEMENT_TASKS``
    generate tasks (one per chunk, fixed seeds) of each ``n_flows``
    bucket pooled (``INLINE_MULTIPLE`` forced to 0) and in-process
    (forced to infinity), in ``PLACEMENT_ROUNDS`` rounds that alternate
    which placement goes first, timing each call's wall and the CPU
    the coordinator and both workers spent on it; every result must
    match the bucket's first.  After every pooled call it reads the
    executor's own fixed-cost estimate, and expresses each bucket's
    in-process work as a multiple of it.  Two multiples bound the
    constant (DESIGN.md §7): the crossover, the first bucket whose
    pooled call wins more than three quarters of the rounds on wall,
    and the pay-off, where the wall a pooled call saves first equals
    the CPU it adds (interpolated between buckets).
    """
    base = GenerateSession(model, GEN_RECORDS, seed=11).plan_round()[
        :PLACEMENT_TASKS]
    tasks = {n: [dataclasses.replace(task, n_flows=n) for task in base]
             for n in PLACEMENT_SIZES}
    multiples = {"pooled": 0.0, "inline": math.inf}
    samples = {kind: {p: {n: [] for n in PLACEMENT_SIZES}
                      for p in multiples} for kind in ("wall", "cpu")}
    fixed_ms = []
    first = {}
    identical = True
    saved = executor_module.INLINE_MULTIPLE
    try:
        with MultiprocessingExecutor(PLACEMENT_JOBS) as executor:
            def call(placement, n):
                nonlocal identical
                executor_module.INLINE_MULTIPLE = multiples[placement]
                assert executor._pays_inline(generate_chunk, len(
                    tasks[n])) == (placement == "inline")
                cpu = _cpu_seconds(executor.worker_pids)
                start = time.perf_counter()
                pieces = executor.map_tasks(generate_chunk, tasks[n])
                wall = time.perf_counter() - start
                cpu = _cpu_seconds(executor.worker_pids) - cpu
                if placement == "pooled":
                    fixed_ms.append(executor._fixed_seconds * 1e3)
                identical &= _pieces_equal(first.setdefault(n, pieces),
                                           pieces)
                return wall * 1e3, cpu * 1e3

            # Warm-up: every worker and the coordinator record their
            # tapes (the first call pools: nothing is measured yet).
            for n in PLACEMENT_SIZES:
                for placement in multiples:
                    call(placement, n)
            for r in range(PLACEMENT_ROUNDS):
                order = list(multiples)[::1 if r % 2 == 0 else -1]
                for n in PLACEMENT_SIZES:
                    for placement in order:
                        wall, cpu = call(placement, n)
                        samples["wall"][placement][n].append(wall)
                        samples["cpu"][placement][n].append(cpu)
    finally:
        executor_module.INLINE_MULTIPLE = saved

    fixed = float(np.median(fixed_ms))
    median = {kind: {p: {n: float(np.median(values))
                         for n, values in per_size.items()}
                     for p, per_size in per_placement.items()}
              for kind, per_placement in samples.items()}
    wall, cpu = median["wall"], median["cpu"]
    work = [wall["inline"][n] / fixed for n in PLACEMENT_SIZES]
    wins = {n: sum(p < i for p, i in zip(samples["wall"]["pooled"][n],
                                         samples["wall"]["inline"][n]))
            for n in PLACEMENT_SIZES}
    crossover = next((i for i, n in enumerate(PLACEMENT_SIZES)
                      if wins[n] > 0.75 * PLACEMENT_ROUNDS), None)
    # Wall the pooled call saves minus CPU it adds, per bucket.
    net = [(wall["inline"][n] - wall["pooled"][n])
           - (cpu["pooled"][n] - cpu["inline"][n]) for n in PLACEMENT_SIZES]
    payoff = next((i for i, d in enumerate(net) if d >= 0), None)
    payoff_multiple = None if payoff is None else work[payoff]
    if payoff:   # interpolate from the bucket below
        lo = payoff - 1
        payoff_multiple = work[lo] + (work[payoff] - work[lo]) * (
            -net[lo] / (net[payoff] - net[lo]))
    by_size = {kind: {p: {str(n): _spread(values)
                          for n, values in per_size.items()}
                      for p, per_size in per_placement.items()}
               for kind, per_placement in samples.items()}
    return {
        "jobs": PLACEMENT_JOBS,
        "tasks_per_call": PLACEMENT_TASKS,
        "rounds": PLACEMENT_ROUNDS,
        "n_flows": list(PLACEMENT_SIZES),
        "bit_identical_across_placements": identical,
        "wall_ms_pooled": by_size["wall"]["pooled"],
        "wall_ms_inline": by_size["wall"]["inline"],
        "cpu_ms_pooled": by_size["cpu"]["pooled"],
        "cpu_ms_inline": by_size["cpu"]["inline"],
        "pooled_faster_rounds": {str(n): wins[n] for n in PLACEMENT_SIZES},
        "fixed_cost_ms": _spread(fixed_ms),
        # Each bucket's in-process work, in fixed costs.
        "work_multiple": {str(n): round(w, 1)
                          for n, w in zip(PLACEMENT_SIZES, work)},
        # The first bucket whose pooled call won on wall in more than
        # three quarters of the rounds, and its work multiple; None
        # when the pool never won.
        "crossover_n_flows": (None if crossover is None
                              else PLACEMENT_SIZES[crossover]),
        "crossover_multiple": (None if crossover is None
                               else round(work[crossover], 1)),
        # The work multiple at which a pooled call's wall saving first
        # equals the CPU it adds; None when it never does.
        "payoff_multiple": (None if payoff_multiple is None
                            else round(payoff_multiple, 1)),
        "inline_multiple": saved,
        "cpus": os.cpu_count() or 1,
    }


@pytest.fixture(scope="module")
def bench():
    """Run the whole measurement matrix once; tests assert on it.

    The serial reference's dispatch bytes are metered here
    (:func:`harness.serial_dispatch_meter`); the pool tallies its own.
    """
    with serial_dispatch_meter():
        trace = load_dataset("ugr16", n_records=RECORDS, seed=0)
        report = {
            "config": {
                "dataset": "ugr16", "records": RECORDS,
                "n_chunks": N_CHUNKS, "epochs_seed": EPOCHS_SEED,
                "epochs_fine_tune": EPOCHS_FINE_TUNE,
                "generate_records": GEN_RECORDS, "jobs": JOBS,
                "smoke": SMOKE,
                # BLAS threads per process, when pinned (None: the
                # library default of one per core).
                "openblas_num_threads": os.environ.get(
                    "OPENBLAS_NUM_THREADS"),
            },
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "fit": {}, "generate": {},
        }

        # jobs=1 fits serially and jobs=JOBS on the pool; each run is
        # filed under the executor it used.
        models = {}
        for jobs in (1, JOBS):
            model = NetShare(_config(jobs)).fit(trace)
            models[model.backend] = model
            report["fit"][model.backend] = {
                "jobs": jobs,
                "wall_seconds": round(model.wall_seconds, 3),
                "cpu_seconds": round(model.cpu_seconds, 3),
                "dispatch_bytes": model.dispatch_bytes,
                "dispatch_tasks": model.dispatch_tasks,
            }

        serial = models["serial"]
        pooled = models["multiprocessing"]
        fit_identical = all(
            np.array_equal(sa[key], sb[key])
            for a, b in zip(serial._chunks, pooled._chunks)
            for sa, sb in [(a.model.state_dict(), b.model.state_dict())]
            for key in sa
        )

        traces = {}
        for label, jobs in (("serial_jobs1", 1),
                            (f"multiprocessing_jobs{JOBS}", JOBS)):
            traces[label] = serial.generate(GEN_RECORDS, seed=7, jobs=jobs)
            report["generate"][label] = {
                "wall_seconds": round(serial.generate_wall_seconds, 3),
                "dispatch_bytes": serial.generate_dispatch_bytes,
                "records": len(traces[label]),
            }
        gen_identical = all(
            _trace_equal(traces["serial_jobs1"], traces[label])
            for label in traces if label != "serial_jobs1"
        )

        # Serial tasks carry their payloads inline; the pool's carry
        # manifests of the same payloads staged in shared memory.
        fit_inline = report["fit"]["serial"]["dispatch_bytes"]
        fit_staged = report["fit"]["multiprocessing"]["dispatch_bytes"]
        gen_inline = report["generate"]["serial_jobs1"]["dispatch_bytes"]
        gen_staged = report["generate"][
            f"multiprocessing_jobs{JOBS}"]["dispatch_bytes"]
        # Each ratio records the host CPU count alongside its value:
        # a "speedup" of 0.56 measured on a single-core box is not a
        # regression, it is the absence of parallelism.
        cpus = os.cpu_count() or 1
        speedup = {
            "value": round(
                report["generate"]["serial_jobs1"]["wall_seconds"]
                / max(report["generate"][
                    f"multiprocessing_jobs{JOBS}"]["wall_seconds"], 1e-9), 2),
            "cpus": cpus,
        }
        if cpus == 1:
            speedup["skipped_reason"] = (
                "single-CPU host: parallel backends cannot beat serial, "
                "speedup gate not applied")
        report["summary"] = {
            "fit_dispatch_reduction": {
                "value": round(fit_inline / max(fit_staged, 1), 1),
                "cpus": cpus},
            "generate_dispatch_reduction": {
                "value": round(gen_inline / max(gen_staged, 1), 1),
                "cpus": cpus},
            "generate_parallel_speedup": speedup,
            "fit_bit_identical": fit_identical,
            "generate_bit_identical": gen_identical,
        }
        report["tape"] = _tape_section()
        report["tape_check"] = _tape_check_section()
        report["infer"] = _infer_section()
        report["dp"] = _dp_section()
        report["placement"] = _placement_section(serial)
        # End-to-end oracle: NetShare.generate with tapes forced off
        # must reproduce the (taped) serial trace byte for byte.
        nn_tape.configure(False)
        try:
            trace_eager = serial.generate(GEN_RECORDS, seed=7, jobs=1)
        finally:
            nn_tape.configure(None)
        report["infer"]["netshare_bit_identical_with_eager"] = _trace_equal(
            traces["serial_jobs1"], trace_eager)
        # -- telemetry: overhead, parity, journal coverage -------------
        # The multiprocessing fit+generate with the journal off and on,
        # in alternating rounds; the last journal is the one checked.
        noop_ns = _noop_span_ns()
        if JOURNAL_DIR.exists():
            shutil.rmtree(JOURNAL_DIR)

        def fit_and_generate():
            model = NetShare(_config(JOBS)).fit(trace)
            generated = model.generate(GEN_RECORDS, seed=7)
            return (model, generated,
                    model.wall_seconds + model.generate_wall_seconds)

        walls = {"off": [], "on": []}
        for r in range(TELEMETRY_ROUNDS):
            for mode in ("off", "on")[::1 if r % 2 == 0 else -1]:
                if mode == "off":
                    wall = fit_and_generate()[2]
                else:
                    with telemetry.session(journal_dir=JOURNAL_DIR,
                                           label="bench-runtime") as journal:
                        model_telem, trace_telem, wall = fit_and_generate()
                        journal_path = journal.directory
                walls[mode].append(wall)
        telem_identical = all(
            np.array_equal(sa[key], sb[key])
            for a, b in zip(models["multiprocessing"]._chunks,
                            model_telem._chunks)
            for sa, sb in [(a.model.state_dict(), b.model.state_dict())]
            for key in sa
        ) and _trace_equal(traces[f"multiprocessing_jobs{JOBS}"], trace_telem)

        _, events = load_journal(journal_path)
        trained = sorted({
            node["attrs"]["chunk"]
            for event in events if event.get("event") == "span"
            for node in _walk(event["span"])
            if node.get("name") == "train_chunk"
        })
        expected = sorted({e["chunk"] for e in events
                           if e.get("event") == "chunk_result"})

        ratio = _spread([on / max(off, 1e-9) for on, off
                         in zip(walls["on"], walls["off"])])
        report["telemetry"] = {
            "journal": str(journal_path.relative_to(REPO_ROOT)),
            "journal_events": len(events),
            "chunks_traced": trained,
            "chunks_expected": expected,
            "bit_identical_with_telemetry": telem_identical,
            "rounds": TELEMETRY_ROUNDS,
            "wall_seconds_off": _spread(walls["off"]),
            "wall_seconds_on": _spread(walls["on"]),
            "on_off_ratio": {
                "value": ratio["median"], "iqr": ratio["iqr"],
                "gate": TELEMETRY_OVERHEAD_GATE, "cpus": os.cpu_count() or 1,
            },
            "disabled_span_ns": round(noop_ns, 1),
        }

        OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {OUTPUT_PATH}")
        print(json.dumps(report["summary"], indent=2))
        print(json.dumps(report["telemetry"], indent=2))
        print(json.dumps(report["tape"], indent=2))
        print(json.dumps(report["tape_check"], indent=2))
        print(json.dumps(report["infer"], indent=2))
        print(json.dumps(report["dp"], indent=2))
        print(json.dumps(report["placement"], indent=2))
        return {"report": report, "models": models, "traces": traces}


class TestRuntimePerf:
    def test_fit_bit_identical_across_backends(self, bench):
        """CI gate: the staged pool must not change what any chunk
        learns."""
        assert bench["report"]["summary"]["fit_bit_identical"]

    def test_generate_bit_identical_across_backends(self, bench):
        assert bench["report"]["summary"]["generate_bit_identical"]

    def test_staging_cuts_fit_dispatch_bytes_10x(self, bench):
        summary = bench["report"]["summary"]
        assert summary["fit_dispatch_reduction"]["value"] >= 10.0

    def test_staging_cuts_generate_dispatch_bytes_10x(self, bench):
        summary = bench["report"]["summary"]
        assert summary["generate_dispatch_reduction"]["value"] >= 10.0

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="speedup gate needs >= 4 CPUs (the JSON "
                        "records skipped_reason on single-CPU hosts)")
    def test_parallel_generate_beats_sequential(self, bench):
        """Acceptance: jobs=4 generation <= 0.7x sequential wall."""
        gen = bench["report"]["generate"]
        sequential = gen["serial_jobs1"]["wall_seconds"]
        parallel = gen[f"multiprocessing_jobs{JOBS}"]["wall_seconds"]
        assert parallel <= 0.7 * sequential

    def test_speedup_gate_skip_is_recorded(self, bench):
        """A single-CPU host must say so in the JSON instead of
        publishing an inscrutable sub-1.0 'speedup'."""
        speedup = bench["report"]["summary"]["generate_parallel_speedup"]
        assert speedup["cpus"] == (os.cpu_count() or 1)
        if speedup["cpus"] == 1:
            assert "skipped_reason" in speedup
        else:
            assert "skipped_reason" not in speedup

    def test_report_written(self, bench):
        data = json.loads(OUTPUT_PATH.read_text())
        assert set(data) >= {"config", "cpus", "fit", "generate", "summary",
                             "telemetry", "tape", "tape_check",
                             "infer", "dp", "placement"}
        assert set(data["fit"]) == {"serial", "multiprocessing"}
        for entry in data["fit"].values():
            assert entry["dispatch_bytes"] > 0
            assert entry["dispatch_tasks"] >= N_CHUNKS - 1

    def test_telemetry_does_not_change_outputs(self, bench):
        """Acceptance: chunk weights and the generated trace are
        bitwise identical with the journal on or off."""
        assert bench["report"]["telemetry"]["bit_identical_with_telemetry"]

    def test_journal_covers_every_chunk(self, bench):
        """The spliced span tree must contain a train_chunk span for
        every chunk the fit reported a result for."""
        telem = bench["report"]["telemetry"]
        assert telem["chunks_traced"] == telem["chunks_expected"]
        assert len(telem["chunks_traced"]) == N_CHUNKS
        assert telem["journal_events"] > 0

    def test_disabled_telemetry_is_cheap(self, bench):
        """A disabled span() must stay sub-microsecond: it returns one
        shared no-op context.  Measured with this bench's 50k-iteration
        loop on a 2-vCPU VM (Python 3.11.7): 269-287 ns median of 9
        rounds, against 1283-1618 ns for the generator-based span it
        replaced."""
        assert bench["report"]["telemetry"]["disabled_span_ns"] < 1_000

    @pytest.mark.skipif(SMOKE, reason="overhead gate too noisy at "
                        "smoke scale (sub-second walls)")
    def test_telemetry_overhead_under_5pct(self, bench):
        """The journal costs under 5% of fit + generate wall (median
        on/off ratio over alternating rounds)."""
        ratio = bench["report"]["telemetry"]["on_off_ratio"]
        assert ratio["cpus"] == (os.cpu_count() or 1)
        assert ratio["value"] < TELEMETRY_OVERHEAD_GATE

    def test_tape_is_bit_identical(self, bench):
        """Acceptance: REPRO_NN_TAPE on/off must not change a single
        loss or weight."""
        assert bench["report"]["tape"]["bit_identical_with_tape"]

    def test_tape_warm_step_speedup(self, bench):
        """Acceptance: a replayed warm step must beat the eager step
        by >= 1.3x (dispatch elimination, so no CPU-count skip)."""
        speedup = bench["report"]["tape"]["warm_step_speedup"]
        assert speedup["cpus"] == (os.cpu_count() or 1)
        assert speedup["value"] >= 1.3

    def test_tape_hit_rate(self, bench):
        """Warm steps must overwhelmingly replay (one record per shape
        signature)."""
        tape = bench["report"]["tape"]
        assert tape["hit_rate"] >= 0.5

    def test_tape_liveness_shrinks_peak_bytes(self, bench):
        """The liveness pass must release dead intermediates: planned
        peak bytes strictly below recorded bytes."""
        tape = bench["report"]["tape"]
        assert 0 < tape["peak_bytes_planned"] < tape["peak_bytes_recorded"]

    def test_infer_bit_identical(self, bench):
        """Acceptance: compiled sampling (record and warm replay) must
        match the eager oracle bit for bit — both at the model layer
        and end-to-end through NetShare.generate."""
        infer = bench["report"]["infer"]
        assert infer["bit_identical_with_eager"]
        assert infer["netshare_bit_identical_with_eager"]

    def test_infer_warm_sample_speedup(self, bench):
        """Acceptance: a warm compiled generate() must beat the eager
        sampler by >= 1.3x (graph-construction elimination, so no
        CPU-count skip)."""
        speedup = bench["report"]["infer"]["warm_sample_speedup"]
        assert speedup["cpus"] == (os.cpu_count() or 1)
        assert speedup["value"] >= 1.3

    def test_infer_hit_rate_under_mixed_request_sizes(self, bench):
        """CI gate: bucketing must collapse a service-style request
        mix onto a handful of warm tapes (>= 50% replays cold)."""
        infer = bench["report"]["infer"]
        assert infer["infer_hit_rate"] >= 0.5
        assert infer["mixed_tapes_recorded"] <= 4

    def test_tape_check_smoke_matrix_is_clean(self, bench):
        """Acceptance: every compiled family's smoke tapes verify with
        zero findings and the kernel registry has no drift."""
        check = bench["report"]["tape_check"]
        assert check["tapes_verified"] > 0
        assert check["findings"] == 0
        assert set(check["families"]) == {"doppelganger", "rowgan",
                                          "stan", "ops"}
        assert check["registry_issues"] == 0

    def test_tape_check_verifier_is_record_time_only(self, bench):
        """Verification happens once per recording — a full pass over
        a real training tape must stay in the low-millisecond range."""
        check = bench["report"]["tape_check"]
        assert check["verified_tape_ops"] > 0
        assert check["verify_ms_per_tape"] < 250.0

    def test_sanitizer_off_replay_cost_unchanged(self, bench):
        """Acceptance: with the sanitizer machinery present but off,
        ``Tape.replay`` must cost what the bare closure loop costs
        (median over alternating rounds; the gate allows 25% on
        sub-millisecond replays)."""
        overhead = bench["report"]["tape_check"]["sanitize_off_overhead"]
        assert overhead["cpus"] == (os.cpu_count() or 1)
        assert overhead["value"] <= SANITIZE_OFF_GATE

    def test_sanitizer_on_overhead_is_recorded(self, bench):
        """Sanitized replay runs the entry closures plus per-op poison
        tracking; the (informational) overhead must be present and
        sane — it is a debugging mode, not a fast path."""
        check = bench["report"]["tape_check"]
        assert check["sanitizer_overhead"] > 0
        assert check["warm_step_ms_sanitized"] > 0

    def test_dp_batched_step_is_bit_identical(self, bench):
        """Acceptance: the batched per-example DP critic pass must not
        change a single loss or weight against the loop oracle."""
        assert bench["report"]["dp"]["bit_identical_with_loop"]

    def test_placement_is_bit_identical(self, bench):
        """Acceptance: a call the pool runs in-process returns the same
        bits as the same call pooled (timings are recorded only: they
        depend on the machine)."""
        placement = bench["report"]["placement"]
        assert placement["bit_identical_across_placements"]
        assert placement["inline_multiple"] == \
            executor_module.INLINE_MULTIPLE

    def test_dp_batched_step_speedup(self, bench):
        """CI gate: the warm batched DP critic step must beat the loop
        oracle by DP_SPEEDUP_GATE (median over alternating rounds; one
        taped pass instead of one per example, so no CPU-count skip)."""
        dp = bench["report"]["dp"]
        speedup = dp["warm_step_speedup"]
        assert speedup["cpus"] == (os.cpu_count() or 1)
        assert dp["critic_params"] > 10_000
        assert speedup["value"] >= DP_SPEEDUP_GATE
