"""Serving performance gate: the repro.serve daemon under load.

Boots one daemon (pooled multiprocessing executor) fronting two model
archives, then fires waves of concurrent mixed-size requests from
several client identities and measures, client-side and daemon-side:

* **throughput** — after one untimed warm-up wave (it pays the pool
  spawn and the cold tapes), ``ROUNDS`` timed rounds of ``WAVES``
  waves each: each round's wall seconds and client-observed latency
  percentiles (p50/p99), recorded as median and IQR over the rounds,
  and the sustained requests/second at the median wall;
* **coalescing** — generate requests per executor batch (the request
  coalescer's whole point; gates: ratio > 1, and one batch per wave,
  warm-up included, since the scheduler batches everything queued),
  read from the daemon's metrics after the last wave (gate: they count
  every request sent);
* **registry** — model-registry hit rate under two models well inside
  capacity (gate: >= 0.5 — one cold load each, resident thereafter);
* **placement** — the share of executor calls the pool ran in-process
  (``runtime.calls_inline`` / ``runtime.calls_pooled``; recorded, not
  gated: it depends on measured costs);
* **parity** — the acceptance oracle: served traces, decoded from the
  wire, are *bit-identical* to offline ``NetShare.generate`` with the
  same :func:`~repro.serve.derive_client_seed` seed.

Waves are staged deterministically with the daemon's scheduler gate:
the gate opens only once the scheduler holds one request of the wave
and the rest are queued, so the coalescing measurement does not depend
on thread-start timing.

Results land in ``BENCH_serve.json`` at the repo root; the daemon's
run journal (serve_start / serve_batch / serve_stop events) streams to
``BENCH_serve_journal/``.  Set ``REPRO_BENCH_SMOKE=1`` for the tiny
CI-sized run.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import NetShare, NetShareConfig, telemetry
from repro.datasets import load_dataset
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeDaemon,
    derive_client_seed,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serve.json"
JOURNAL_DIR = REPO_ROOT / "BENCH_serve_journal"

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE", "").strip())
RECORDS = 240 if SMOKE else 500
EPOCHS_SEED = 2 if SMOKE else 4
EPOCHS_FINE_TUNE = 1 if SMOKE else 2
#: Request sizes cycle through this mix (small/medium/large).
SIZES = (20, 45, 90) if SMOKE else (40, 90, 180)
CLIENTS = ("alice", "bob", "carol")
WAVES = 2 if SMOKE else 3
#: Timed rounds of ``WAVES`` waves each, after one warm-up wave.
ROUNDS = 3 if SMOKE else 7
#: Requests per wave = one size per client identity.
WAVE_JOBS = [(client, size) for client in CLIENTS for size in SIZES]

TRACE_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                 "start_time", "duration", "packets", "bytes")


def _train_archives(tmp_dir: Path):
    trace = load_dataset("ugr16", n_records=RECORDS, seed=0)
    config = NetShareConfig(
        n_chunks=2, epochs_seed=EPOCHS_SEED,
        epochs_fine_tune=EPOCHS_FINE_TUNE,
        ip2vec_public_records=400, batch_size=32, seed=0)
    model = NetShare(config).fit(trace)
    primary = tmp_dir / "ugr16_a.npz"
    model.save(primary)
    # Second archive = same weights under another name: exercises the
    # registry with two resident entries without a second training run.
    secondary = tmp_dir / "ugr16_b.npz"
    shutil.copy(primary, secondary)
    return str(primary), str(secondary)


def _spread(values) -> dict:
    """Median and IQR of a per-round figure, with the round count and
    the machine's CPU count."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4),
            "iqr": round(float(q3 - q1), 4),
            "n": len(values), "cpus": os.cpu_count() or 1}


def _run_wave(daemon, wave_index: int, latencies, served, failures):
    """Fire one wave of concurrent requests, gate-staged so every
    request is admitted before the scheduler may start a batch."""
    host, port = daemon.address
    daemon.gate.clear()
    threads = []

    def fire(client_id, size, seed):
        model_name = "model_a" if seed % 2 == 0 else "model_b"
        try:
            with ServeClient(host, port, client_id=client_id,
                             max_retries=8) as client:
                start = time.perf_counter()
                trace = client.generate(size, model_name, seed=seed)
                latencies.append(time.perf_counter() - start)
                served.append((client_id, size, seed, model_name, trace))
        except Exception as exc:  # surfaced by the caller's assert
            failures.append(f"{client_id}/{size}/{seed}: {exc}")

    for offset, (client_id, size) in enumerate(WAVE_JOBS):
        seed = wave_index * 100 + offset
        thread = threading.Thread(target=fire,
                                  args=(client_id, size, seed))
        thread.start()
        threads.append(thread)
    # Open the gate once the whole wave is admitted: one request held
    # by the scheduler, the rest queued behind it.  Past the bound the
    # gate opens anyway, and a straggler shows as an extra batch.
    deadline = time.monotonic() + 60.0
    while (daemon.held + daemon.queue.depth < len(WAVE_JOBS)
           and time.monotonic() < deadline):
        time.sleep(0.01)
    daemon.gate.set()
    for thread in threads:
        thread.join(timeout=300.0)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("serve_bench")
    primary, secondary = _train_archives(tmp_dir)

    if JOURNAL_DIR.exists():
        shutil.rmtree(JOURNAL_DIR)
    config = ServeConfig(
        queue_limit=4 * len(WAVE_JOBS),
        jobs=2 if (os.cpu_count() or 1) >= 2 else 1,
    )
    latencies, served, failures = [], [], []
    walls, p50s, p99s = [], [], []
    with telemetry.session(journal_dir=JOURNAL_DIR,
                           label="bench-serve") as journal:
        daemon = ServeDaemon(
            models={"model_a": primary, "model_b": secondary},
            config=config)
        daemon.start()
        try:
            _run_wave(daemon, 0, [], served, failures)   # warm-up
            for round_index in range(ROUNDS):
                timed = []
                start = time.perf_counter()
                for wave in range(WAVES):
                    # Every wave has its own seeds: none hits the
                    # result cache.
                    _run_wave(daemon, 1 + round_index * WAVES + wave,
                              timed, served, failures)
                walls.append(time.perf_counter() - start)
                p50s.append(float(np.percentile(timed, 50)))
                p99s.append(float(np.percentile(timed, 99)))
                latencies.extend(timed)
            with ServeClient(*daemon.address) as client:
                metrics = client.metrics()
        finally:
            daemon.shutdown(drain=True)
        journal_path = journal.directory
        runtime = telemetry.metrics().snapshot()["counters"]
    calls_inline = runtime.get("runtime.calls_inline", 0.0)
    calls_pooled = runtime.get("runtime.calls_pooled", 0.0)

    assert not failures, failures
    round_requests = WAVES * len(WAVE_JOBS)
    total_requests = len(WAVE_JOBS) + ROUNDS * round_requests
    assert len(served) == total_requests

    # Offline parity: every served trace must equal NetShare.generate
    # with the derived seed on a freshly-loaded archive.
    offline_models = {"model_a": NetShare.load(primary),
                      "model_b": NetShare.load(secondary)}
    parity_checked = 0
    parity_ok = True
    for client_id, size, seed, model_name, trace in served:
        offline = offline_models[model_name].generate(
            size, seed=derive_client_seed(client_id, seed))
        same = len(trace) == len(offline) == size and all(
            np.array_equal(getattr(trace, col), getattr(offline, col))
            for col in TRACE_COLUMNS)
        parity_ok = parity_ok and same
        parity_checked += 1

    counters = metrics["serve"]["counters"]
    batches = counters["serve.batches"]
    generate_requests = counters["serve.generate.requests"]
    registry = metrics["registry"]
    hit_rate = registry["hits"] / max(
        registry["hits"] + registry["misses"], 1)
    wall = _spread(walls)

    report = {
        "smoke": SMOKE,
        "cpus": os.cpu_count(),
        "config": {
            "records": RECORDS, "sizes": list(SIZES),
            "clients": list(CLIENTS), "warmup_waves": 1,
            "rounds": ROUNDS, "waves_per_round": WAVES,
            "requests_per_wave": len(WAVE_JOBS),
            "queue_limit": config.queue_limit,
            "jobs": config.jobs,
        },
        # ``requests`` and ``records_served`` count the warm-up wave
        # too; the timings cover the timed rounds only.
        "throughput": {
            "requests": total_requests,
            "requests_per_round": round_requests,
            "wall_seconds": wall,
            "sustained_rps": round(round_requests / wall["median"], 3),
            "records_served": int(counters["serve.generate.records"]),
        },
        "latency_seconds": {
            "p50": _spread(p50s),
            "p99": _spread(p99s),
            "max": round(max(latencies), 4),
            "mean": round(float(np.mean(latencies)), 4),
        },
        "coalescing": {
            "generate_requests": generate_requests,
            "batches": batches,
            "ratio": round(generate_requests / max(batches, 1), 3),
            "executor_calls": counters["serve.executor.calls"],
            "tasks": counters["serve.tasks"],
        },
        "placement": {
            "calls_inline": calls_inline,
            "calls_pooled": calls_pooled,
            "inline_share": round(
                calls_inline / max(calls_inline + calls_pooled, 1), 3),
        },
        "registry": {
            "hits": registry["hits"],
            "misses": registry["misses"],
            "hit_rate": round(hit_rate, 3),
            "resident": registry["resident"],
            "capacity": registry["capacity"],
        },
        "parity": {
            "bit_identical": parity_ok,
            "requests_checked": parity_checked,
        },
        "journal": str(journal_path.relative_to(REPO_ROOT)),
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    print(json.dumps(report, indent=2))
    return report


class TestServePerf:
    def test_report_written(self, bench):
        data = json.loads(OUTPUT_PATH.read_text())
        assert data["throughput"]["requests"] == bench[
            "throughput"]["requests"]

    def test_offline_parity_gate(self, bench):
        """Acceptance: every served trace bit-identical to offline
        generation with the same derived seed."""
        assert bench["parity"]["bit_identical"]
        assert bench["parity"]["requests_checked"] == bench[
            "throughput"]["requests"]

    def test_coalescing_ratio_above_one(self, bench):
        """Acceptance: concurrent requests actually share batches."""
        assert bench["coalescing"]["ratio"] > 1.0

    def test_each_wave_is_one_batch(self, bench):
        """The scheduler takes the held request and everything queued
        behind it, so each staged wave, the warm-up included, runs as
        one batch."""
        assert bench["coalescing"]["batches"] == 1 + ROUNDS * WAVES

    def test_metrics_count_every_request(self, bench):
        """The daemon counts a request before answering it, so the
        metrics read after the last wave include every request."""
        assert bench["coalescing"]["generate_requests"] == bench[
            "throughput"]["requests"]

    def test_registry_hit_rate_gate(self, bench):
        """Acceptance: two models inside capacity -> one cold load
        each, every later request a hit."""
        assert bench["registry"]["hit_rate"] >= 0.5
        assert bench["registry"]["misses"] == 2

    def test_sustained_throughput_recorded(self, bench):
        assert bench["throughput"]["sustained_rps"] > 0.0
        assert bench["throughput"]["records_served"] > 0

    def test_p99_latency_bounded(self, bench):
        """Bounded-latency gate: with admission control on, no request
        waits unboundedly — generous CI ceiling, tightly logged."""
        assert bench["latency_seconds"]["p99"]["median"] <= 120.0

    def test_journal_has_serve_lifecycle(self, bench):
        from repro.telemetry import load_journal
        _, events = load_journal(REPO_ROOT / bench["journal"])
        kinds = {event.get("event") for event in events}
        assert {"serve_start", "serve_batch", "serve_stop"} <= kinds
