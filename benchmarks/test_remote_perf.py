"""Multi-host remote executor benchmark: the ``remote-smoke`` gate.

Boots two loopback ``python -m repro.runtime.remote_worker`` hosts and
drives the full NetShare pipeline through the coordinator, writing
``BENCH_remote.json``.  The report doubles as the acceptance gate for
the distributed backend:

* **Parity** — remote fit, generate, and serve output must be
  bit-identical to the serial oracle.  Distribution is a pure
  scheduling decision; it may never change a single output bit.
* **Blob dedup** — every content-hashed ``FrozenState``/array blob
  crosses the wire at most once per host: ``ship_counts`` must read 1
  for every (host, blob) pair even when many tasks and repeated maps
  reference the same state.
* **Fault model** — killing a worker host mid-generate must re-queue
  its in-flight tasks onto the survivors with zero lost and zero
  duplicated records (the generated trace stays bit-identical).
* **Wire economy** — the per-task frame shipped to a host must stay
  within 2x of the local pool's staged manifest size for the same fit
  workload; the blob plane, not the task plane, carries the bulk.

The coordinator journals to ``BENCH_remote_journal/coordinator-*`` and
each host to ``BENCH_remote_journal/host-*``; the shards merge with
``repro.telemetry report BENCH_remote_journal/...`` (multi-directory).

Run at full scale::

    PYTHONPATH=src python -m pytest benchmarks/test_remote_perf.py -q -s

CI runs the smoke scale (``REPRO_BENCH_SMOKE=1``).
"""

import json
import os
import platform
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import NetShare, NetShareConfig, telemetry
from repro.datasets import load_dataset
from repro.runtime.chunk_tasks import freeze_state
from repro.runtime.remote import RemoteExecutor, spawn_worker_host
from repro.serve import ServeClient, ServeConfig, ServeDaemon, \
    derive_client_seed
from repro.telemetry import load_journal, load_journals

from harness import serial_dispatch_meter

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_remote.json"
JOURNAL_DIR = REPO_ROOT / "BENCH_remote_journal"

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE", "").strip())
RECORDS = 240 if SMOKE else 480
N_CHUNKS = 3 if SMOKE else 4
EPOCHS_SEED = 2 if SMOKE else 4
EPOCHS_FINE_TUNE = 1 if SMOKE else 2
GEN_RECORDS = 120 if SMOKE else 240
JOBS = 2

#: Environment for the spawned worker hosts: ``src`` for the repro
#: package, this directory so the dedup-probe task function (defined
#: below) unpickles by module reference on the host side.
HOST_ENV = {"PYTHONPATH": os.pathsep.join(
    [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks"),
     os.environ.get("PYTHONPATH", "")])}

TRACE_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                 "start_time", "duration", "packets", "bytes")


def _config(jobs, hosts=None):
    return NetShareConfig(
        n_chunks=N_CHUNKS, epochs_seed=EPOCHS_SEED,
        epochs_fine_tune=EPOCHS_FINE_TUNE, ip2vec_public_records=400,
        batch_size=32, seed=0, jobs=jobs, hosts=hosts,
    )


def _trace_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, col), getattr(b, col))
               for col in TRACE_COLUMNS)


def _state_dicts_equal(a, b) -> bool:
    if len(a._chunks) != len(b._chunks):
        return False
    for ca, cb in zip(a._chunks, b._chunks):
        sa, sb = ca.model.state_dict(), cb.model.state_dict()
        if sa.keys() != sb.keys():
            return False
        if not all(np.array_equal(sa[key], sb[key]) for key in sa):
            return False
    return True


def _probe_sum(task):
    """Dedup-probe task, run on the worker hosts: thaw the shared
    chunk state and reduce it (module-level so hosts unpickle it by
    reference via this module on their PYTHONPATH)."""
    state = task["state"].thaw()
    total = sum(float(np.asarray(value).sum())
                for value in state["weights"].values())
    return total * task["scale"]


def _remote_maps(journal_dir):
    _, events = load_journal(str(journal_dir))
    return [e for e in events if e["event"] == "remote_map"]


@pytest.fixture(scope="module")
def bench():
    if JOURNAL_DIR.exists():
        shutil.rmtree(JOURNAL_DIR)
    hosts = []
    try:
        trace = load_dataset("ugr16", n_records=RECORDS, seed=0)
        report = {
            "config": {
                "dataset": "ugr16", "records": RECORDS,
                "n_chunks": N_CHUNKS, "epochs_seed": EPOCHS_SEED,
                "epochs_fine_tune": EPOCHS_FINE_TUNE,
                "generate_records": GEN_RECORDS, "jobs": JOBS,
                "smoke": SMOKE,
            },
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "fit": {}, "generate": {},
        }

        # -- local oracles -------------------------------------------
        # The serial backend sends nothing; its inline task bytes are
        # metered here.
        with serial_dispatch_meter():
            serial = NetShare(_config(1)).fit(trace)
        pooled = NetShare(_config(JOBS)).fit(trace)
        for label, model in (("serial", serial),
                             ("multiprocessing", pooled)):
            report["fit"][label] = {
                "jobs": model.config.jobs,
                "wall_seconds": round(model.wall_seconds, 3),
                "cpu_seconds": round(model.cpu_seconds, 3),
                "dispatch_bytes": model.dispatch_bytes,
                "dispatch_tasks": model.dispatch_tasks,
            }

        # -- the two-host loopback fleet -----------------------------
        hosts = [
            spawn_worker_host(jobs=1, env=HOST_ENV,
                              journal_dir=str(JOURNAL_DIR / "host-a")),
            spawn_worker_host(jobs=2, env=HOST_ENV,
                              journal_dir=str(JOURNAL_DIR / "host-b")),
        ]
        hosts_str = ",".join(h.label for h in hosts)
        report["hosts"] = [h.label for h in hosts]

        # -- remote fit (own journal session: isolates its wire cost)
        with telemetry.session(
                journal_dir=str(JOURNAL_DIR / "coordinator-fit")):
            remote = NetShare(_config(JOBS, hosts=hosts_str)).fit(trace)
        assert remote.backend == "remote"
        report["fit"]["remote"] = {
            "jobs": remote.config.jobs,
            "hosts": len(hosts),
            "wall_seconds": round(remote.wall_seconds, 3),
            "cpu_seconds": round(remote.cpu_seconds, 3),
            "dispatch_bytes": remote.dispatch_bytes,
            "dispatch_tasks": remote.dispatch_tasks,
        }
        fit_identical = _state_dicts_equal(serial, remote)

        # Wire economy: bytes actually framed to hosts per fit task,
        # against the local pool's manifest bytes for the same tasks.
        fit_maps = _remote_maps(JOURNAL_DIR / "coordinator-fit")
        wire_tasks = sum(e["tasks"] for e in fit_maps)
        wire_bytes = sum(e["task_bytes"] for e in fit_maps)
        report["wire"] = {
            "maps": len(fit_maps),
            "tasks": wire_tasks,
            "task_bytes": wire_bytes,
            "bytes_per_task": round(wire_bytes / max(wire_tasks, 1), 1),
            "blob_bytes": sum(e["blob_bytes"] for e in fit_maps),
            "blobs_sent": sum(e["blobs_sent"] for e in fit_maps),
            "dedup_hits": sum(e["dedup_hits"] for e in fit_maps),
            "pool_manifest_bytes_per_task": round(
                pooled.dispatch_bytes / max(pooled.dispatch_tasks, 1), 1),
        }

        with telemetry.session(
                journal_dir=str(JOURNAL_DIR / "coordinator-generate")):
            # -- generate parity -------------------------------------
            t0 = time.perf_counter()
            gen_serial = serial.generate(GEN_RECORDS, seed=7)
            serial_wall = time.perf_counter() - t0
            t0 = time.perf_counter()
            gen_remote = serial.generate(GEN_RECORDS, seed=7, jobs=JOBS,
                                         hosts=hosts_str)
            remote_wall = time.perf_counter() - t0
            generate_identical = _trace_equal(gen_serial, gen_remote)
            report["generate"] = {
                "records": GEN_RECORDS, "seed": 7,
                "serial_wall_seconds": round(serial_wall, 3),
                "remote_wall_seconds": round(remote_wall, 3),
            }

            # -- dedup probe: ship_counts ledger under repeat maps ---
            states = [freeze_state({"weights": c.model.state_dict()})
                      for c in remote._chunks]
            tasks = [{"state": s, "scale": scale}
                     for s in states for scale in (1.0, 2.0)]
            expected = [
                sum(float(np.asarray(v).sum())
                    for v in c.model.state_dict().values()) * scale
                for c in remote._chunks for scale in (1.0, 2.0)]
            ex = RemoteExecutor(hosts=[h.address for h in hosts])
            try:
                got = ex.map_tasks(_probe_sum, tasks)
                probe_ok = np.allclose(got, expected)
                # Second map over freshly-frozen but content-identical
                # states: the ledger must show zero new shipments.
                again = ex.map_tasks(_probe_sum, [
                    {"state": freeze_state(
                        {"weights": c.model.state_dict()}), "scale": 3.0}
                    for c in remote._chunks])
                probe_ok = probe_ok and np.allclose(
                    again, [e * 3.0 for e in expected[::2]])
                ship_values = sorted(ex.ship_counts.values())
                report["dedup_probe"] = {
                    "blobs": len(states),
                    "hosts": len(hosts),
                    "results_ok": bool(probe_ok),
                    "blobs_sent": ex.stats["blobs_sent"],
                    "dedup_hits": ex.stats["blob_dedup_hits"],
                    "max_ships_per_host_blob":
                        max(ship_values) if ship_values else 0,
                    "ledger_entries": len(ship_values),
                }
            finally:
                ex.close()

            # -- host death mid-generate: re-queue, zero loss --------
            oracle = serial.generate(GEN_RECORDS, seed=11)
            victim = spawn_worker_host(jobs=1, env=HOST_ENV)
            killer = threading.Timer(0.05, victim.kill)
            killer.start()
            try:
                # Two slots for N_CHUNKS tasks: the victim is
                # guaranteed in-flight work when the kill lands.
                gen_fault = serial.generate(
                    GEN_RECORDS, seed=11, jobs=JOBS,
                    hosts=",".join([victim.label, hosts[0].label]))
            finally:
                killer.cancel()
                victim.stop()
            fault_identical = _trace_equal(oracle, gen_fault)
            fault_maps = _remote_maps(
                JOURNAL_DIR / "coordinator-generate")
            report["fault"] = {
                "bit_identical": bool(fault_identical),
                "map_retries": fault_maps[-1]["retries"]
                if fault_maps else 0,
            }

        # -- serve parity + result cache over the remote backend -----
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench_model.npz")
            serial.save(path)
            daemon = ServeDaemon(
                models={"ugr16": path},
                config=ServeConfig(coalesce_window=0.02, jobs=1,
                                   hosts=hosts_str))
            daemon.start()
            try:
                with ServeClient(*daemon.address,
                                 client_id="bench") as client:
                    served = client.generate(40, "ugr16", seed=5)
                    meta = dict(client.last_response)
                    again = client.generate(40, "ugr16", seed=5)
                    meta2 = dict(client.last_response)
            finally:
                daemon.shutdown()
        derived = derive_client_seed("bench", 5)
        offline = serial.generate(40, seed=derived)
        serve_identical = (_trace_equal(served, offline)
                           and _trace_equal(again, offline))
        report["serve"] = {
            "records": 40, "derived_seed": derived,
            "repeat_request_cached": meta2.get("cached") is True,
            "first_request_cached": meta.get("cached", False) is True,
        }

        # -- stop the fleet, merge the journal shards ----------------
        for host in hosts:
            host.stop()
        hosts = []
        shard_dirs = [JOURNAL_DIR / "coordinator-fit",
                      JOURNAL_DIR / "coordinator-generate",
                      JOURNAL_DIR / "host-a", JOURNAL_DIR / "host-b"]
        meta_merged, events = load_journals([str(d) for d in shard_dirs])
        kinds = sorted({e["event"] for e in events})
        report["journal"] = {
            "shards": len(meta_merged["shards"]),
            "run_id": meta_merged["run_id"],
            "events": len(events),
            "kinds": kinds,
        }

        report["summary"] = {
            "fit_bit_identical": bool(fit_identical),
            "generate_bit_identical": bool(generate_identical),
            "serve_bit_identical": bool(serve_identical),
            "serve_repeat_cached": report["serve"]
            ["repeat_request_cached"],
            "blob_max_ships_per_host": report["dedup_probe"]
            ["max_ships_per_host_blob"],
            "dedup_hits": report["dedup_probe"]["dedup_hits"],
            "host_death_zero_lost_duplicated": bool(fault_identical),
            "wire_bytes_per_task_vs_pool_manifest": {
                "value": round(
                    report["wire"]["bytes_per_task"]
                    / max(report["wire"]["pool_manifest_bytes_per_task"],
                          1.0), 3),
                "remote_wire_bytes_per_task": report["wire"]
                ["bytes_per_task"],
                "pool_manifest_bytes_per_task": report["wire"]
                ["pool_manifest_bytes_per_task"],
            },
        }

        OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print("\n== remote bench ==")
        print(json.dumps(report["summary"], indent=2))
        print(json.dumps(report["wire"], indent=2))
        print(json.dumps(report["journal"], indent=2))
        yield {"report": report}
    finally:
        for host in hosts:
            host.stop()


class TestRemotePerf:
    def test_fit_bit_identical(self, bench):
        assert bench["report"]["summary"]["fit_bit_identical"]

    def test_generate_bit_identical(self, bench):
        assert bench["report"]["summary"]["generate_bit_identical"]

    def test_serve_bit_identical_and_cached(self, bench):
        assert bench["report"]["summary"]["serve_bit_identical"]
        assert bench["report"]["summary"]["serve_repeat_cached"]

    def test_blob_ships_at_most_once_per_host(self, bench):
        """Acceptance: each FrozenState blob crosses the wire <= once
        per host, however many tasks and maps reference it."""
        summary = bench["report"]["summary"]
        assert summary["blob_max_ships_per_host"] == 1
        assert summary["dedup_hits"] > 0
        probe = bench["report"]["dedup_probe"]
        assert probe["results_ok"]
        assert probe["blobs_sent"] <= probe["blobs"] * probe["hosts"]

    def test_host_death_requeues_with_zero_loss(self, bench):
        assert bench["report"]["summary"]
        assert bench["report"]["summary"][
            "host_death_zero_lost_duplicated"]

    def test_wire_bytes_within_2x_of_pool_manifests(self, bench):
        ratio = bench["report"]["summary"][
            "wire_bytes_per_task_vs_pool_manifest"]
        assert ratio["value"] <= 2.0

    def test_journal_shards_merge(self, bench):
        journal = bench["report"]["journal"]
        assert journal["shards"] == 4
        assert journal["run_id"].count("+") == 3
        assert {"remote_host_connect", "remote_map", "host_start",
                "host_connect", "host_task",
                "host_stop"} <= set(journal["kinds"])

    def test_report_written(self, bench):
        data = json.loads(OUTPUT_PATH.read_text())
        assert set(data) >= {"config", "cpus", "hosts", "fit",
                             "generate", "wire", "dedup_probe", "fault",
                             "serve", "journal", "summary"}
        assert set(data["fit"]) == {"serial", "multiprocessing", "remote"}
        for entry in data["fit"].values():
            assert entry["dispatch_tasks"] >= N_CHUNKS - 1
