"""Tests for repro.telemetry: metrics registry, trace spans, the run
journal + report CLI, the cross-process worker protocol, the
persistent worker pool (cache survival, worker-death retry), and the
bit-identical-with-telemetry-on guarantee on the NetShare runtime."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import NetShare, NetShareConfig, load_dataset, telemetry
from repro.nn import Dense, Parameter, tensor
from repro.nn.autograd import Tensor
from repro.nn.optim import SGD
from repro.runtime import (
    MultiprocessingExecutor,
    SerialExecutor,
    SharedArena,
    block_exists,
)
from repro.runtime.executor import MAX_TASK_ATTEMPTS
from repro.telemetry import (
    NULL_REGISTRY,
    MetricsRegistry,
    absorb_worker_payload,
    begin_worker_task,
    export_worker_payload,
    load_journal,
    load_journals,
    span,
)
from repro.telemetry import spans as spans_mod
from repro.telemetry.metrics import Histogram
from repro.telemetry.report import render_text, summarize
from repro.telemetry.state import STATE


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry disabled."""
    telemetry.shutdown()
    yield
    telemetry.shutdown()


# ----------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(4)
        reg.gauge("g").set(7)
        hist = reg.histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"]["counts"] == [1, 1, 1, 1]
        assert snap["histograms"]["h"]["count"] == 4
        assert snap["histograms"]["h"]["sum"] == pytest.approx(55.55)

    def test_histogram_percentiles(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            hist.observe(value)
        assert hist.percentile(25) == 1.0
        assert hist.percentile(75) == 2.0
        assert hist.percentile(100) == 4.0
        assert hist.mean == pytest.approx(6.6 / 4)
        assert Histogram().percentile(50) is None

    def test_histogram_overflow_reports_last_bound(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.counts[-1] == 1
        assert hist.percentile(50) == 2.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(0.5)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 3.0
        assert snap["gauges"]["g"] == 9.0          # last write wins
        assert snap["histograms"]["h"]["count"] == 2

    def test_merge_mismatched_buckets_falls_back(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b.histogram("h", buckets=(10.0,)).observe(5.0)
        a.merge(b.snapshot())
        hist = a.histogram("h")
        assert hist.count == 2                     # nothing lost

    def test_null_registry_is_shared_noop(self):
        NULL_REGISTRY.counter("x").inc(100)
        NULL_REGISTRY.gauge("x").set(100)
        NULL_REGISTRY.histogram("x").observe(100)
        snap = NULL_REGISTRY.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")


# ----------------------------------------------------------------------
# Spans


class TestSpans:
    def test_disabled_span_yields_none_and_records_nothing(self):
        assert not telemetry.enabled()
        with span("outer") as record:
            assert record is None
        assert spans_mod.export_pending() == []

    def test_nesting_builds_a_tree(self):
        telemetry.configure()
        with span("outer", kind="test") as outer:
            with span("inner") as inner:
                pass
            assert inner in outer.children
        pending = spans_mod.export_pending()
        assert len(pending) == 1
        root = pending[0]
        assert root["name"] == "outer"
        assert root["attrs"] == {"kind": "test"}
        assert root["worker_pid"] == os.getpid()
        assert root["children"][0]["name"] == "inner"
        assert root["duration_s"] >= root["children"][0]["duration_s"] >= 0

    def test_task_id_is_captured(self):
        telemetry.configure()
        spans_mod.set_task(7)
        with span("work"):
            pass
        spans_mod.set_task(None)
        assert spans_mod.export_pending()[0]["task_id"] == 7

    def test_attach_children_splices_under_open_span(self):
        telemetry.configure()
        foreign = [{"name": "remote", "duration_s": 0.5, "worker_pid": 1}]
        with span("parent") as parent:
            spans_mod.attach_children(foreign)
        assert foreign[0] in parent.children
        tree = spans_mod.export_pending()[0]
        assert tree["children"] == foreign


# ----------------------------------------------------------------------
# Journal + report


class TestJournal:
    def test_session_round_trip(self, tmp_path):
        with telemetry.session(journal_dir=tmp_path, label="t") as journal:
            telemetry.emit_event("custom", answer=42)
            telemetry.metrics().counter("c").inc(3)
            with span("root"):
                pass
            run_dir = journal.directory
        assert (run_dir / "events.jsonl").exists()
        meta, events = load_journal(run_dir)
        assert meta["label"] == "t"
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "custom" in kinds and "span" in kinds and "metrics" in kinds
        custom = next(e for e in events if e["event"] == "custom")
        assert custom["answer"] == 42 and custom["run_id"] == meta["run_id"]
        final = next(e for e in events if e["event"] == "metrics")
        assert final["counters"]["c"] == 3.0

    def test_load_journal_resolves_newest_run(self, tmp_path):
        with telemetry.session(journal_dir=tmp_path, run_id="a-run"):
            telemetry.emit_event("first")
        with telemetry.session(journal_dir=tmp_path, run_id="z-run"):
            telemetry.emit_event("second")
        meta, events = load_journal(tmp_path)   # base dir -> newest run
        assert meta["run_id"] == "z-run"
        assert any(e["event"] == "second" for e in events)

    def test_sessions_within_one_second_get_their_own_runs(
            self, tmp_path, monkeypatch):
        """Two sessions one process opens within the same second (the
        clock is pinned) write two runs, each with its own label and
        one ``run_start``."""
        monkeypatch.setattr("repro.telemetry.journal.time.strftime",
                            lambda fmt: "20260101-000000")
        labels = ("first", "second")
        run_dirs = []
        for label in labels:
            with telemetry.session(journal_dir=tmp_path,
                                   label=label) as journal:
                run_dirs.append(journal.directory)
        assert run_dirs[0] != run_dirs[1]
        for run_dir, label in zip(run_dirs, labels):
            meta, events = load_journal(run_dir)
            assert meta["label"] == label
            assert [e["event"] for e in events].count("run_start") == 1

    def test_summarize_and_render(self, tmp_path):
        with telemetry.session(journal_dir=tmp_path, label="r") as journal:
            telemetry.emit_event("worker_retry", task=3, attempt=1, pid=99)
            telemetry.metrics().counter("runtime.tasks_completed").inc(5)
            telemetry.metrics().histogram("runtime.task_seconds").observe(0.2)
            with span("map_tasks", backend="serial"):
                with span("task", index=0):
                    pass
            run_dir = journal.directory
        summary = summarize(*load_journal(run_dir))
        assert summary["run"]["label"] == "r"
        assert summary["worker_retries"] == [
            {"task": 3, "attempt": 1, "pid": 99}]
        paths = [s["path"] for s in summary["spans"]["slowest"]]
        assert "map_tasks" in paths and "map_tasks/task" in paths
        text = render_text(summary)
        assert "runtime.tasks_completed = 5" in text
        assert "worker retries: 1" in text

    def test_report_cli(self, tmp_path):
        with telemetry.session(journal_dir=tmp_path, label="cli"):
            telemetry.emit_event("custom")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report",
             str(tmp_path), "--format", "json"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["run"]["label"] == "cli"

    def test_report_cli_missing_journal(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report",
             str(tmp_path / "nope")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 2

    @staticmethod
    def _write_run(base, run_id, train_seconds, hits, misses,
                   accepted, rejected, epsilon):
        with telemetry.session(journal_dir=base, run_id=run_id):
            telemetry.emit_event("chunk_result", chunk=0, mode="train",
                                 train_seconds=train_seconds, epochs=2)
            telemetry.metrics().counter("nn.tape.hits").inc(hits)
            telemetry.metrics().counter("nn.tape.misses").inc(misses)
            telemetry.emit_event("generate_round", round=0, tasks=4,
                                 accepted=accepted, rejected=rejected,
                                 records=accepted * 10, shortfall=0)
            telemetry.emit_event("dp_epsilon", chunk=0, steps=5,
                                 epsilon=epsilon)

    def test_diff_summaries(self, tmp_path):
        from repro.telemetry.report import diff_summaries
        self._write_run(tmp_path / "a", "a", train_seconds=1.0,
                        hits=90, misses=10, accepted=4, rejected=0,
                        epsilon=1.0)
        self._write_run(tmp_path / "b", "b", train_seconds=2.0,
                        hits=50, misses=50, accepted=2, rejected=2,
                        epsilon=1.5)
        a = summarize(*load_journal(tmp_path / "a"))
        b = summarize(*load_journal(tmp_path / "b"))
        diff = diff_summaries(a, b, fail_on_regression=10.0)
        assert diff["train_seconds"]["change_pct"] == pytest.approx(100.0)
        assert diff["cache_hit_rates"]["nn.tape"]["change_pp"] == (
            pytest.approx(-40.0))
        assert diff["epsilon"]["change_pct"] == pytest.approx(50.0)
        metrics = {r["metric"] for r in diff["regressions"]}
        assert metrics == {
            "train_seconds", "cache:nn.tape", "reject_share", "epsilon"}
        # Same run against itself: nothing regresses.
        clean = diff_summaries(a, a, fail_on_regression=10.0)
        assert clean["regressions"] == []

    def test_report_cli_diff(self, tmp_path):
        self._write_run(tmp_path / "a", "a", train_seconds=1.0,
                        hits=90, misses=10, accepted=4, rejected=0,
                        epsilon=1.0)
        self._write_run(tmp_path / "b", "b", train_seconds=2.0,
                        hits=50, misses=50, accepted=2, rejected=2,
                        epsilon=1.5)
        cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": "src"}
        # Without --fail-on-regression the diff renders and exits 0.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report", "--diff",
             str(tmp_path / "a"), str(tmp_path / "b")],
            capture_output=True, text=True, env=env, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        assert "train:" in proc.stdout and "nn.tape" in proc.stdout
        # With the threshold, the slower/lossier run B exits 3.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report", "--diff",
             str(tmp_path / "a"), str(tmp_path / "b"),
             "--fail-on-regression", "10", "--format", "json"],
            capture_output=True, text=True, env=env, cwd=cwd)
        assert proc.returncode == 3, proc.stderr
        diff = json.loads(proc.stdout)
        assert diff["regressions"]
        # A against itself passes the same gate.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report", "--diff",
             str(tmp_path / "a"), str(tmp_path / "a"),
             "--fail-on-regression", "10"],
            capture_output=True, text=True, env=env, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        assert "no regressions" in proc.stdout


class TestJournalMerge:
    """Multi-shard loading: a distributed run's coordinator + per-host
    journals merge into one ts-ordered view."""

    def _shard(self, base, run_id, events):
        with telemetry.session(journal_dir=base, run_id=run_id):
            for event_type, fields in events:
                telemetry.emit_event(event_type, **fields)

    def test_merge_orders_by_ts_and_keeps_provenance(self, tmp_path):
        self._shard(tmp_path / "coord", "coord",
                    [("remote_map", {"tasks": 4})])
        self._shard(tmp_path / "host", "host-a",
                    [("host_task", {"task": 0})])
        meta, events = load_journals(
            [tmp_path / "coord", tmp_path / "host"])
        assert meta["run_id"] == "coord+host-a"
        assert [m["run_id"] for m in meta["shards"]] == ["coord", "host-a"]
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        by_run = {e["run_id"] for e in events}
        assert by_run == {"coord", "host-a"}

    def test_single_path_degenerates_to_load_journal(self, tmp_path):
        self._shard(tmp_path, "solo", [("custom", {"x": 1})])
        merged = load_journals([tmp_path])
        assert merged == load_journal(tmp_path)
        assert "shards" not in merged[0]

    def test_empty_path_list_rejected(self):
        with pytest.raises(ValueError):
            load_journals([])

    def test_report_merges_positional_shards(self, tmp_path):
        self._shard(tmp_path / "coord", "coord",
                    [("worker_retry", {"task": 1, "attempt": 1, "pid": 7})])
        self._shard(tmp_path / "host", "host-a",
                    [("worker_retry", {"task": 2, "attempt": 1, "pid": 9})])
        summary = summarize(*load_journals(
            [tmp_path / "coord", tmp_path / "host"]))
        assert len(summary["worker_retries"]) == 2
        cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report",
             str(tmp_path / "coord"), str(tmp_path / "host"),
             "--format", "json"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        merged = json.loads(proc.stdout)
        assert merged["run"]["run_id"] == "coord+host-a"

    def test_diff_accepts_comma_separated_shards(self, tmp_path):
        for side in ("a", "b"):
            self._shard(tmp_path / side / "main", f"{side}-main",
                        [("chunk_result", {"chunk": 0, "mode": "train",
                                           "train_seconds": 1.0,
                                           "epochs": 2})])
            self._shard(tmp_path / side / "host", f"{side}-host",
                        [("host_task", {"task": 0})])
        cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report", "--diff",
             f"{tmp_path}/a/main,{tmp_path}/a/host",
             f"{tmp_path}/b/main,{tmp_path}/b/host",
             "--fail-on-regression", "10"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, cwd=cwd)
        assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# Worker protocol (in-process simulation of the executor handshake)


class TestWorkerProtocol:
    def test_worker_payload_round_trip(self):
        telemetry.configure()
        telemetry.metrics().counter("parent.only").inc(5)

        # --- pretend we forked: worker inherits live state, drops it.
        parent_registry = STATE.registry
        begin_worker_task(task_id=2)
        assert STATE.worker_mode and STATE.journal is None
        assert STATE.registry is not parent_registry
        with span("task"):
            telemetry.metrics().counter("runtime.thaw_cache.hits").inc()
        payload = export_worker_payload()
        assert payload["pid"] == os.getpid()
        assert payload["spans"][0]["name"] == "task"
        assert payload["spans"][0]["task_id"] == 2
        assert payload["metrics"]["counters"] == {
            "runtime.thaw_cache.hits": 1.0}
        # drained: the next task exports only its own delta
        assert export_worker_payload()["spans"] == []

        # --- back in the parent: splice the envelope in.
        STATE.worker_mode = False
        STATE.registry = parent_registry
        with span("map_tasks") as root:
            absorb_worker_payload(payload)
        assert root.children[0]["name"] == "task"
        snap = telemetry.metrics().snapshot()
        assert snap["counters"]["parent.only"] == 5.0
        assert snap["counters"]["runtime.thaw_cache.hits"] == 1.0

    def test_absorb_none_is_noop(self):
        telemetry.configure()
        absorb_worker_payload(None)
        absorb_worker_payload({})


# ----------------------------------------------------------------------
# Persistent worker pool


def _pid_task(_):
    return os.getpid()


def _explode_once(task):
    """Kill this worker process the first time it sees the poison
    value; succeed on the retry (the marker file is the memory)."""
    value, marker = task
    if value == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return value * 10


def _always_explode(_):
    os._exit(1)


class TestPersistentPool:
    def test_workers_survive_across_map_tasks_calls(self, monkeypatch):
        # Pin pooled placement: the second call's tasks are cheap
        # enough that the pool would run it in-process.
        monkeypatch.setattr("repro.runtime.executor.INLINE_MULTIPLE", 0.0)
        with MultiprocessingExecutor(2) as executor:
            first = set(executor.map_tasks(_pid_task, [0, 1, 2, 3]))
            pool_pids = set(executor.worker_pids)
            second = set(executor.map_tasks(_pid_task, [0, 1, 2, 3]))
            assert first == second == pool_pids
            assert len(pool_pids) == 2
        assert executor.worker_pids == []   # context exit closed the pool

    def test_close_is_idempotent_and_pool_respawns(self):
        executor = MultiprocessingExecutor(2)
        executor.map_tasks(_pid_task, [0, 1])
        executor.close()
        executor.close()
        assert executor.map_tasks(_pid_task, [0, 1])  # fresh pool works
        executor.close()

    def test_worker_death_retries_and_journal_records_it(self, tmp_path):
        """Satellite: kill a worker mid-task; the persistent pool
        respawns it, re-queues the task, journals the retry, and the
        shm arena still unlinks its blocks."""
        marker = str(tmp_path / "exploded")
        tasks = [(i, marker) for i in range(6)]
        with telemetry.session(journal_dir=tmp_path / "runs") as journal:
            with MultiprocessingExecutor(2) as executor:
                with SharedArena() as arena:
                    ref = arena.share_array(np.arange(8.0))
                    shared_name = ref.name
                    results = executor.map_tasks(_explode_once, tasks)
            run_dir = journal.directory
            retries = telemetry.metrics().snapshot()["counters"][
                "runtime.worker_retries"]
        assert results == [i * 10 for i in range(6)]
        assert os.path.exists(marker)
        assert retries == 1.0
        assert not block_exists(shared_name)    # arena cleaned up
        _, events = load_journal(run_dir)
        retry_events = [e for e in events if e["event"] == "worker_retry"]
        assert len(retry_events) == 1
        assert retry_events[0]["task"] == 2
        assert retry_events[0]["attempt"] == 1
        assert any(e["event"] == "shm_stage" for e in events)
        assert any(e["event"] == "shm_unlink" for e in events)

    def test_worker_death_without_telemetry_still_retries(self, tmp_path):
        marker = str(tmp_path / "exploded")
        with MultiprocessingExecutor(2) as executor:
            results = executor.map_tasks(
                _explode_once, [(i, marker) for i in range(4)])
        assert results == [0, 10, 20, 30]

    def test_task_attempts_are_bounded(self):
        # Two tasks so the pool path runs (one task falls back to the
        # inline path, which would run the exploding fn in-process).
        with MultiprocessingExecutor(2) as executor:
            with pytest.raises(RuntimeError,
                               match=f"{MAX_TASK_ATTEMPTS}"):
                executor.map_tasks(_always_explode, [0, 1])


# ----------------------------------------------------------------------
# nn instrumentation


class TestInstrumentation:
    def test_layers_and_optimizers_record_no_histograms(self):
        """Layer forwards and optimizer steps carry no timing: tape
        replay, which runs most steps, skips them anyway."""
        with telemetry.session():
            Dense(3, 2)(tensor(np.ones((4, 3))))
            SGD([Parameter(np.ones(2))], lr=0.1).step([Tensor(np.ones(2))])
            assert telemetry.metrics().snapshot()["histograms"] == {}


# ----------------------------------------------------------------------
# End-to-end: NetShare fit/generate with a live journal


def fast_config(**kwargs):
    defaults = dict(n_chunks=3, epochs_seed=2, epochs_fine_tune=1,
                    ip2vec_public_records=400, batch_size=32, seed=0)
    defaults.update(kwargs)
    return NetShareConfig(**defaults)


@pytest.fixture(scope="module")
def netflow():
    return load_dataset("ugr16", n_records=240, seed=0)


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


class TestNetShareJournal:
    def test_journaled_run_is_bit_identical_and_covered(self, netflow,
                                                        tmp_path):
        """Acceptance: telemetry never changes outputs, and the spliced
        span tree covers every chunk task of a multiprocessing fit."""
        # 4 chunks on 2 workers: some worker must run two fine-tune
        # tasks, so the thaw cache is guaranteed a hit (pigeonhole).
        plain = NetShare(fast_config(n_chunks=4, jobs=2)).fit(netflow)
        baseline = plain.generate(60, seed=3)
        with telemetry.session(journal_dir=tmp_path) as journal:
            model = NetShare(fast_config(n_chunks=4, jobs=2)).fit(netflow)
            synthetic = model.generate(60, seed=3)
            run_dir = journal.directory

        for a, b in zip(plain._chunks, model._chunks):
            sa, sb = a.model.state_dict(), b.model.state_dict()
            for key in sa:
                np.testing.assert_array_equal(sa[key], sb[key])
        np.testing.assert_array_equal(baseline.src_ip, synthetic.src_ip)
        np.testing.assert_array_equal(baseline.bytes, synthetic.bytes)

        _, events = load_journal(run_dir)
        kinds = {e["event"] for e in events}
        assert {"run_start", "fit_start", "chunk_result", "fit_end",
                "generate_start", "generate_round", "generate_end",
                "metrics", "run_end"} <= kinds
        expected = sorted(e["chunk"] for e in events
                          if e["event"] == "chunk_result")
        traced = sorted({
            node["attrs"]["chunk"]
            for e in events if e["event"] == "span"
            for node in _walk(e["span"])
            if node.get("name") == "train_chunk"
        })
        assert traced == expected == [0, 1, 2, 3]
        # Fine-tune chunks ran in pool workers: their spans carry the
        # worker's pid, spliced under the parent's map_tasks span.
        worker_pids = {
            node["worker_pid"]
            for e in events if e["event"] == "span"
            for node in _walk(e["span"])
            if node.get("name") == "train_chunk"
        }
        assert any(pid != os.getpid() for pid in worker_pids)
        final = next(e for e in events if e["event"] == "metrics")
        assert final["counters"]["runtime.tasks_dispatched"] >= 2
        rounds = [e for e in events if e["event"] == "generate_round"]
        assert rounds and all("accepted" in e and "rejected" in e
                              for e in rounds)

    def test_generate_exhaustion_reports_per_round_counts(self, netflow,
                                                          monkeypatch):
        """Satellite: the capped-retry exhaustion error names every
        round's accept/reject tallies."""
        from repro.core.flow_encoder import EncodedFlows
        from repro.gan.doppelganger import DoppelGANger

        model = NetShare(fast_config()).fit(netflow)

        def degenerate_generate(self, n, seed=None):
            cfg = self.config
            return EncodedFlows(
                np.zeros((n, cfg.metadata_dim)),
                np.zeros((n, cfg.max_timesteps, cfg.measurement_dim)),
                np.zeros((n, cfg.max_timesteps)),
            )

        monkeypatch.setattr(DoppelGANger, "generate", degenerate_generate)
        with pytest.raises(RuntimeError, match="chunks accepted"):
            model.generate(50, seed=1)

    def test_cli_journal_flag(self, netflow, tmp_path):
        from repro.cli import main
        from repro.datasets import write_flow_csv

        csv_in = tmp_path / "in.csv"
        csv_out = tmp_path / "out.csv"
        write_flow_csv(netflow, csv_in)
        code = main(["synthesize", str(csv_in), str(csv_out),
                     "--records", "40", "--chunks", "2", "--epochs", "2",
                     "--journal", str(tmp_path / "runs")])
        assert code == 0
        assert csv_out.exists()
        meta, events = load_journal(tmp_path / "runs")
        assert meta["label"].startswith("synthesize")
        assert any(e["event"] == "fit_end" for e in events)
        assert not telemetry.enabled()      # session closed after the run


# ----------------------------------------------------------------------
# Every span and event lands (there is no sampling)


class TestSampling:
    def test_sample_one_keeps_everything(self, tmp_path):
        with telemetry.session(journal_dir=tmp_path) as journal:
            for epoch in range(3):
                telemetry.emit_event("epoch", model="a", epoch=epoch)
            run_dir = journal.directory
        _, events = load_journal(run_dir)
        assert sum(1 for e in events if e["event"] == "epoch") == 3


# ----------------------------------------------------------------------
# Baseline fit loops land in the journal (CTGAN / STAN)


class TestBaselineJournal:
    def test_ctgan_fit_is_journaled(self, tmp_path):
        from repro.baselines import CTGAN

        trace = load_dataset("ugr16", n_records=80, seed=0)
        with telemetry.session(journal_dir=tmp_path) as journal:
            CTGAN(epochs=2, seed=0).fit(trace)
            run_dir = journal.directory
        _, events = load_journal(run_dir)
        kinds = {e["event"] for e in events}
        assert {"fit_start", "epoch", "fit_end"} <= kinds
        start = next(e for e in events if e["event"] == "fit_start")
        assert start["model"] == "ctgan"
        epochs = [e for e in events if e["event"] == "epoch"]
        assert [e["epoch"] for e in epochs] == [0, 1]
        assert all(e["model"] == "ctgan" for e in epochs)
        spans_seen = [e["span"]["name"] for e in events
                      if e["event"] == "span"]
        assert "ctgan.fit" in spans_seen

    def test_stan_fit_is_journaled(self, tmp_path):
        from repro.baselines import Stan

        trace = load_dataset("ugr16", n_records=80, seed=0)
        with telemetry.session(journal_dir=tmp_path) as journal:
            Stan(epochs=3, seed=0).fit(trace)
            run_dir = journal.directory
        _, events = load_journal(run_dir)
        start = next(e for e in events if e["event"] == "fit_start")
        assert start["model"] == "stan" and len(start["fields"]) == 5
        epochs = [e for e in events if e["event"] == "epoch"]
        assert {e["field"] for e in epochs} == {
            "dst_port", "duration", "packets", "bytes", "gap"}
        assert any(e["event"] == "fit_end" and e["model"] == "stan"
                   for e in events)
