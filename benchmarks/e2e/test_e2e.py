"""Smoke test of the end-to-end benchmark (not part of the tier-1 suite).

    python -m pytest benchmarks/e2e/test_e2e.py -q

Every workload runs at ``--scale smoke``: a few seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"),
         "--scale", "smoke", "--seconds", "1", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def last_json(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    done = bench("--workload", "train")
    assert done.returncode == 0, done.stderr
    line = last_json(done)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_consistent_self_times(workload):
    done = bench("--workload", workload, "--trace", "1")
    assert done.returncode == 0, done.stderr
    line = last_json(done)
    assert line["correct"] and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in ("gan.sample_s", "flow_encoder.decode_s",
                 "runtime.map_tasks_s", "runtime.task_s"):
        assert line["metrics"][name]["value"] > 0, name

    spans = json.loads(
        (HERE / "results" / f"{workload}.spans.json").read_text())["spans"]
    own = tracer.self_times(spans)
    assert min(own.values()) >= -1e-9
    thread = {s["id"]: (s["pid"], s["tid"]) for s in spans}
    self_sum = defaultdict(float)
    root_wall = defaultdict(float)
    for s in spans:
        key = thread[s["id"]]
        self_sum[key] += own[s["id"]]
        if thread.get(s["parent"]) != key:
            root_wall[key] += s["end"] - s["start"]
    for key, total in self_sum.items():
        assert total <= root_wall[key] + 1e-6, key


def test_corrupted_generator_fails_the_run(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(ROOT / "src")!r})
        from repro.core import netshare
        _finish = netshare.GenerateSession.finish

        def finish(self):
            trace = _finish(self)
            return trace.subset(slice(1, None))

        netshare.GenerateSession.finish = finish
    """))
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    done = bench("--workload", "train", env=env)
    assert done.returncode != 0
    assert not last_json(done)["correct"]


def test_failed_serve_request_is_counted_not_fatal(tmp_path):
    # The first timed request of client-0 (seed 0) fails client-side.
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(ROOT / "src")!r})
        from repro.serve import ServeClient, ServeError
        _generate = ServeClient.generate

        def generate(self, n_records, model, seed=0):
            if self.client_id == "client-0" and seed == 0:
                raise ServeError("injected failure")
            return _generate(self, n_records, model, seed=seed)

        ServeClient.generate = generate
    """))
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    done = bench("--workload", "serve", env=env)
    assert done.returncode == 1, done.stderr
    line = last_json(done)
    assert not line["correct"]
    assert line["attempted"] >= 12 and line["failed"] >= 1
    assert line["metrics"]["op_p50_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = bench("--workload", "train", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.3 for p in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, faster, "lower", 0.1) == "gain"
    assert compare.verdict(parent, slower, "lower", 0.1) == "REGRESSION"
    assert compare.verdict(parent, parent, "lower", 0.1) == "ok"
    assert compare.verdict(noisy, parent, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent[:5], faster[:5], "lower", 0.1) == "ok"


def test_compare_counts_a_crashed_run():
    def run(value, failed=0):
        return {"metrics": {m["name"]: value for m in SPEC["end_to_end"]},
                "failed": failed, "attempted": 10, "output_digest": "d"}

    parent = [run(1.0) for _ in range(3)]
    change = [run(0.5), None, run(0.5, failed=1)]
    row = compare.compare_workload(SPEC, parent, change)
    assert "failed 0/30 vs 1/20, crashed runs 0 vs 1 (gains void)" in row
    assert "outputs bit-identical" in row
