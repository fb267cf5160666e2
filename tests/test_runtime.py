"""Tests for the repro.runtime executor layer: backend selection,
serial/multiprocessing determinism, state serialization, and the
NetShare save/load + generation top-up guarantees that ride on it."""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import FlowTrace, NetShare, NetShareConfig, load_dataset
from repro.baselines import EWganGp
from repro.core.flow_encoder import EncodedFlows
from repro.gan.doppelganger import DgConfig, DoppelGANger
from repro.runtime import (
    HOSTS_ENV_VAR,
    ChunkTask,
    MultiprocessingExecutor,
    SerialExecutor,
    flatten_state,
    freeze_state,
    get_executor,
    load_state_npz,
    resolve_jobs,
    save_state_npz,
    thaw_state,
    train_chunk,
    unflatten_state,
)


def _square(x):
    """Module-level so the multiprocessing backend can pickle it."""
    return x * x


def _pid_after(delay):
    time.sleep(delay)
    return os.getpid()


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_get_executor_backends(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv(HOSTS_ENV_VAR, raising=False)
        assert isinstance(get_executor(), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(4), MultiprocessingExecutor)
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert isinstance(get_executor(), MultiprocessingExecutor)


class TestBackendSelection:
    def test_single_machine_path_never_loads_the_socket_layer(self):
        """``get_executor`` imports the remote backend only to build a
        ``remote`` executor, so importing the package, building a pool
        and importing NetShare leave the socket modules unloaded."""
        code = (
            "import sys\n"
            "import repro\n"
            "from repro import NetShare\n"
            "from repro.runtime import get_executor\n"
            "get_executor(2).close()\n"
            "print(sorted(m for m in sys.modules if m in\n"
            "      ('repro.runtime.remote', 'repro.runtime.wire')))\n")
        env = {k: v for k, v in os.environ.items() if k != HOSTS_ENV_VAR}
        env["PYTHONPATH"] = os.pathsep.join(
            [_SRC] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_shm_map_matches_serial(self):
        """Array tasks, which the pool stages in shared memory, map
        through the pool exactly as they run in-process."""
        arrays = [np.arange(6.0) * i for i in range(5)]
        with MultiprocessingExecutor(2) as pool:
            pooled = pool.map_tasks(_square, arrays)
        serial = SerialExecutor().map_tasks(_square, arrays)
        for a, b in zip(pooled, serial):
            np.testing.assert_array_equal(a, b)


class TestExecutors:
    def test_serial_map_order(self):
        assert SerialExecutor().map_tasks(_square, [1, 2, 3]) == [1, 4, 9]

    def test_multiprocessing_matches_serial(self):
        tasks = list(range(7))
        serial = SerialExecutor().map_tasks(_square, tasks)
        parallel = MultiprocessingExecutor(2).map_tasks(_square, tasks)
        assert parallel == serial

    def test_empty_task_list(self):
        assert MultiprocessingExecutor(2).map_tasks(_square, []) == []

    def test_each_call_starts_on_workers_in_spawn_order(self):
        """Worker caches fill with whatever tasks land on them, so every
        call hands task i to the i-th spawned worker, even when the
        previous call's workers finished in the other order."""
        with MultiprocessingExecutor(2) as executor:
            for _ in range(3):
                # Task 0 finishes last, so completion order is reversed.
                pids = executor.map_tasks(_pid_after, [0.3, 0.0])
                assert pids == executor.worker_pids


class TestStateNpz:
    def test_flatten_round_trip(self):
        state = {
            "config": {"seed": 3, "name": "x", "flag": True, "none": None,
                       "losses": [0.5, 0.25]},
            "weights": {"w": np.arange(6.0).reshape(2, 3),
                        "nested": {"b": np.zeros(2)}},
        }
        arrays, meta = flatten_state(state)
        assert set(arrays) == {"weights/w", "weights/nested/b"}
        rebuilt = unflatten_state(arrays, meta)
        assert rebuilt["config"] == state["config"]
        np.testing.assert_array_equal(rebuilt["weights"]["w"],
                                      state["weights"]["w"])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "state.npz"
        save_state_npz(path, {"a": {"b": np.ones(3)}, "c": "hello"})
        loaded = load_state_npz(path)
        assert loaded["c"] == "hello"
        np.testing.assert_array_equal(loaded["a"]["b"], np.ones(3))

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, x=np.ones(2))
        with pytest.raises(ValueError):
            load_state_npz(path)

    def test_rejects_unserializable_leaf(self):
        with pytest.raises(TypeError):
            flatten_state({"bad": object()})


def fast_config(**kwargs):
    defaults = dict(n_chunks=3, epochs_seed=2, epochs_fine_tune=1,
                    ip2vec_public_records=400, batch_size=32, seed=0)
    defaults.update(kwargs)
    return NetShareConfig(**defaults)


@pytest.fixture(scope="module")
def netflow():
    return load_dataset("ugr16", n_records=240, seed=0)


@pytest.fixture(scope="module")
def fitted_serial(netflow):
    return NetShare(fast_config(jobs=1)).fit(netflow)


class TestBackendDeterminism:
    """Acceptance criterion: multiprocessing chunk models are
    bit-identical to the serial backend's for the same config seed."""

    def test_chunk_models_bit_identical(self, netflow, fitted_serial):
        parallel = NetShare(fast_config(jobs=2)).fit(netflow)
        assert fitted_serial.backend == "serial"
        assert parallel.backend == "multiprocessing"
        assert len(fitted_serial._chunks) == len(parallel._chunks) >= 3
        for a, b in zip(fitted_serial._chunks, parallel._chunks):
            assert a.index == b.index
            sa, sb = a.model.state_dict(), b.model.state_dict()
            assert sa.keys() == sb.keys()
            for key in sa:
                np.testing.assert_array_equal(sa[key], sb[key])

    def test_shm_backend_bit_identical(self, netflow, fitted_serial,
                                       monkeypatch):
        """The pool's zero-copy plane (tensors and frozen states staged
        in shared memory, tasks shipped as manifests) changes where
        tensors live, not what any task computes: staged chunk models
        match serial exactly."""
        monkeypatch.setenv("REPRO_MEASURE_DISPATCH", "1")
        staged = NetShare(fast_config(jobs=2)).fit(netflow)
        assert staged.backend == "multiprocessing"
        seed_state = pickle.dumps(fitted_serial._chunks[0].model.state_dict(),
                                  protocol=pickle.HIGHEST_PROTOCOL)
        assert staged.dispatch_tasks > 0
        assert staged.dispatch_bytes / staged.dispatch_tasks < len(seed_state)
        assert len(staged._chunks) == len(fitted_serial._chunks)
        for a, b in zip(fitted_serial._chunks, staged._chunks):
            sa, sb = a.model.state_dict(), b.model.state_dict()
            for key in sa:
                np.testing.assert_array_equal(sa[key], sb[key])

    def test_generate_bit_identical_across_backends(self, fitted_serial):
        """Parallel generation fans per-chunk sampling out as staged
        tasks; the trace must be bit-identical to serial."""
        base = fitted_serial.generate(80, seed=3)
        alt = fitted_serial.generate(80, seed=3, jobs=2)
        for column in ("src_ip", "dst_ip", "src_port", "dst_port",
                       "protocol", "start_time", "duration",
                       "packets", "bytes"):
            np.testing.assert_array_equal(
                getattr(base, column), getattr(alt, column),
                err_msg=column)

    def test_wall_clock_is_measured(self, fitted_serial):
        # Serial: wall covers all tasks plus dispatch, so wall >= cpu.
        assert fitted_serial.wall_seconds >= fitted_serial.cpu_seconds > 0

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs a multi-core machine")
    def test_parallel_wall_below_cpu(self, netflow):
        model = NetShare(fast_config(jobs=2)).fit(netflow)
        assert model.wall_seconds < model.cpu_seconds


class TestTrainChunkTask:
    def test_fine_tune_requires_init_state(self):
        config = DgConfig(metadata_dim=4, measurement_dim=2)
        with pytest.raises(ValueError):
            ChunkTask(chunk_index=0, encoded=None, gan_config=config,
                      seed=0, epochs=1, mode="fine_tune")

    def test_unknown_mode_rejected(self):
        config = DgConfig(metadata_dim=4, measurement_dim=2)
        with pytest.raises(ValueError):
            ChunkTask(chunk_index=0, encoded=None, gan_config=config,
                      seed=0, epochs=1, mode="nope")

    def test_task_result_matches_inline_training(self, fitted_serial):
        """train_chunk reproduces direct DoppelGANger training."""
        chunk = fitted_serial._chunks[0]
        encoder = fitted_serial._encoder
        cfg = fitted_serial.config
        gan_config = fitted_serial._gan_config(encoder)
        reference = DoppelGANger(gan_config, seed=cfg.seed + chunk.index)
        # Rebuild the seed chunk's encoded tensors and retrain inline.
        from repro.core.preprocess import chunk_flows
        flows = chunk_flows(
            load_dataset("ugr16", n_records=240, seed=0), cfg.n_chunks)
        encoded = encoder.encode_chunk(flows[chunk.index], chunk.window)
        reference.fit(encoded, epochs=cfg.epochs_seed)
        result = train_chunk(ChunkTask(
            chunk_index=chunk.index, encoded=encoded, gan_config=gan_config,
            seed=cfg.seed + chunk.index, epochs=cfg.epochs_seed, mode="fit"))
        for key, value in reference.state_dict().items():
            np.testing.assert_array_equal(result.state[key], value)


class TestGanStateRoundTrip:
    def test_state_dict_round_trip_generates_identically(self, fitted_serial):
        chunk = fitted_serial._chunks[0]
        config = fitted_serial._gan_config(fitted_serial._encoder)
        clone = DoppelGANger.from_state(
            config, chunk.model.state_dict(), seed=123)
        a = chunk.model.generate(16, seed=9)
        b = clone.generate(16, seed=9)
        np.testing.assert_array_equal(a.metadata, b.metadata)
        np.testing.assert_array_equal(a.measurements, b.measurements)
        np.testing.assert_array_equal(a.gen_flags, b.gen_flags)


class TestNetShareSaveLoad:
    def test_round_trip_generates_identically(self, fitted_serial, tmp_path):
        path = tmp_path / "model.npz"
        fitted_serial.save(path)
        loaded = NetShare.load(path)
        assert loaded.kind == "netflow"
        assert loaded.cpu_seconds == fitted_serial.cpu_seconds
        assert len(loaded._chunks) == len(fitted_serial._chunks)
        a = fitted_serial.generate(100, seed=11)
        b = loaded.generate(100, seed=11)
        assert isinstance(b, FlowTrace)
        for column in ("src_ip", "dst_ip", "src_port", "dst_port",
                       "protocol", "start_time", "packets", "bytes"):
            np.testing.assert_array_equal(getattr(a, column),
                                          getattr(b, column))

    def test_pcap_round_trip(self, tmp_path):
        pcap = load_dataset("caida", n_records=200, seed=0)
        model = NetShare(fast_config(n_chunks=2, max_timesteps=12)).fit(pcap)
        path = tmp_path / "pcap.npz"
        model.save(path)
        loaded = NetShare.load(path)
        assert loaded.kind == "pcap"
        a = model.generate(80, seed=4)
        b = loaded.generate(80, seed=4)
        np.testing.assert_array_equal(a.timestamp, b.timestamp)
        np.testing.assert_array_equal(a.packet_size, b.packet_size)

    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            NetShare(fast_config()).save(tmp_path / "nope.npz")

    def test_load_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "foreign.npz"
        save_state_npz(path, {"format": "something-else"})
        with pytest.raises(ValueError):
            NetShare.load(path)

    def test_archive_naming_shm_loads_as_the_pool(self, fitted_serial,
                                                  tmp_path):
        """Archives written while a config named a backend (``shm``
        included) still load, without the field, and generate
        bit-identically."""
        path = tmp_path / "model.npz"
        fitted_serial.save(path)
        state = load_state_npz(path)
        state["config"]["backend"] = "shm"
        save_state_npz(path, state)
        loaded = NetShare.load(path)
        assert not hasattr(loaded.config, "backend")
        np.testing.assert_array_equal(
            loaded.generate(60, seed=2, jobs=1).src_ip,
            fitted_serial.generate(60, seed=2).src_ip)


class TestGenerateTopUpGuard:
    def test_all_empty_pieces_raise_cleanly(self, fitted_serial, monkeypatch):
        """Satellite bugfix: an all-empty pass must not reach
        type(pieces[0]) — it raises a clear RuntimeError instead.

        Generation now runs through GenerateTask workers that rebuild
        the model from its state_dict, so the degenerate model is
        patched at the class level (the serial backend runs tasks
        in-process, so the patch is visible to them).
        """
        from repro.core.flow_encoder import EncodedFlows

        def degenerate_generate(self, n, seed=None):
            cfg = self.config
            return EncodedFlows(
                np.zeros((n, cfg.metadata_dim)),
                np.zeros((n, cfg.max_timesteps, cfg.measurement_dim)),
                np.zeros((n, cfg.max_timesteps)),   # no active timestep
            )

        monkeypatch.setattr(DoppelGANger, "generate", degenerate_generate)
        with pytest.raises(RuntimeError, match="no records"):
            fitted_serial.generate(50, seed=1)

    def test_retry_rounds_reseed_deterministically(self, fitted_serial):
        """Satellite bugfix: every retry round derives fresh per-chunk
        seeds from (seed, round, chunk) — rounds never repeat a
        stream, and the derivation depends on nothing else."""
        seen = set()
        for round_index in range(3):
            for chunk in fitted_serial._chunks:
                pair = NetShare._generate_seeds(11, round_index, chunk.index)
                assert pair not in seen
                seen.add(pair)
                # Pure function of its inputs.
                assert pair == NetShare._generate_seeds(
                    11, round_index, chunk.index)
        assert (NetShare._generate_seeds(12, 0, 0)
                != NetShare._generate_seeds(11, 0, 0))


class TestEpochParallelBaseline:
    def test_backend_determinism(self, netflow):
        serial = EWganGp(epochs=1, seed=0, epoch_models=3, jobs=1).fit(netflow)
        parallel = EWganGp(epochs=1, seed=0, epoch_models=3,
                           jobs=2).fit(netflow)
        assert len(serial._gans) == len(parallel._gans) >= 2
        for (a, _), (b, _) in zip(serial._gans, parallel._gans):
            sa, sb = a.state_dict(), b.state_dict()
            for key in sa:
                np.testing.assert_array_equal(sa[key], sb[key])
        np.testing.assert_array_equal(
            serial.generate(60, seed=2).src_ip,
            parallel.generate(60, seed=2).src_ip)

    def test_single_model_default_unchanged(self, netflow):
        model = EWganGp(epochs=1, seed=0).fit(netflow)
        assert len(model._gans) == 1
        assert model.train_seconds > 0
        syn = model.generate(40, seed=1)
        assert len(syn) == 40


def _slow_square(x):
    """Module-level so the pool can pickle it; slow enough that a
    concurrent close() provably overlaps the in-flight run."""
    import time as _time
    _time.sleep(0.25)
    return x * x


class TestWorkerPoolShutdown:
    """Regression tests for the drain-aware, idempotent pool close the
    repro.serve SIGTERM path depends on: a shutdown from another thread
    must never terminate workers mid-map (they could be reading a block
    of the call's arena, which the call unlinks when it ends)."""

    def test_close_is_idempotent_and_seals_the_pool(self):
        executor = MultiprocessingExecutor(2)
        assert executor.map_tasks(_square, [1, 2, 3]) == [1, 4, 9]
        pool = executor._pool
        executor.close()
        executor.close()  # second close is a no-op, not an error
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, pickle.dumps((0, _square, 1, {}, False)))

    def test_close_from_another_thread_drains_in_flight_map(self):
        import threading
        import time

        executor = MultiprocessingExecutor(2)
        # Warm the pool so map_tasks below goes through it.
        assert executor.map_tasks(_square, [1, 2]) == [1, 4]
        started = threading.Event()
        outcome = {}

        def mapper():
            started.set()
            outcome["results"] = executor.map_tasks(
                _slow_square, list(range(4)))

        thread = threading.Thread(target=mapper)
        thread.start()
        started.wait(5.0)
        time.sleep(0.1)  # let the dispatch reach the workers
        closed_at = time.monotonic()
        executor.close()  # must block until the in-flight run finishes
        close_seconds = time.monotonic() - closed_at
        thread.join(timeout=30.0)
        assert outcome["results"] == [x * x for x in range(4)]
        # close() returned only after the (>= 0.25 s/task) map drained;
        # allow generous slack for the 0.1 s head start.
        assert close_seconds > 0.05


# ----------------------------------------------------------------------
# Pool lifecycle against a killed coordinator.  Each case runs the
# coordinator in a subprocess: it maps plain tasks (which the pool
# stages) over a two-worker pool, prints the worker pids and then exits
# cleanly or SIGKILLs itself; ``kill_busy`` dies while both workers are
# mid-task on staged blocks, whose names it prints first.

_COORDINATOR = r"""
import glob, os, signal, sys, threading, time
import numpy as np
from repro.runtime import MultiprocessingExecutor, freeze_state, thaw_state

def hold(array):
    time.sleep(60)

order, mode = sys.argv[1:3]
executor = MultiprocessingExecutor(2)
if order == "pool_first":
    executor.map_tasks(abs, [-1, -2])   # fork before the tracker runs
executor.map_tasks(np.sum, [np.full(8, float(i)) for i in range(3)])
frozen = freeze_state({"w": np.arange(100.0)})
executor.map_tasks(thaw_state, [frozen, frozen])
print(" ".join(map(str, executor.worker_pids)), flush=True)
staged = set()
if mode == "kill_busy":
    before = set(glob.glob("/dev/shm/repro_*"))
    threading.Thread(target=executor.map_tasks, daemon=True,
                     args=(hold, [np.ones(4), np.zeros(4)])).start()
    time.sleep(1.0)
    staged = set(glob.glob("/dev/shm/repro_*")) - before
print(" ".join(sorted(staged)), flush=True)
if mode.startswith("kill"):
    os.kill(os.getpid(), signal.SIGKILL)
executor.close()
"""

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is dead)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_gone(pids, timeout: float = 10.0) -> list:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_alive(pid) for pid in pids):
            return []
        time.sleep(0.1)
    return [pid for pid in pids if _alive(pid)]


def _run_coordinator(order: str, mode: str):
    """Run one coordinator to the end; return (worker pids, blocks it
    had staged when it died, stderr, worker pids still alive after the
    grace period)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR, order, mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    pids = [int(pid) for pid in proc.stdout.readline().split()]
    staged = proc.stdout.readline().split()
    proc.wait(timeout=60)
    survivors = _wait_gone(pids)
    try:
        # EOF on stderr: coordinator, workers and tracker all exited.
        _, stderr = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        stderr = ""
    finally:
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
        proc.stderr.close()
    return pids, staged, stderr, survivors


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="probes /proc and /dev/shm")
class TestPoolLifecycle:
    @pytest.mark.parametrize("mode", ["kill", "kill_busy"],
                             ids=["idle", "busy"])
    def test_workers_exit_when_coordinator_is_killed(self, mode):
        pids, _, _, survivors = _run_coordinator("arena_first", mode)
        assert len(pids) == 2
        assert survivors == [], "pool workers outlived their coordinator"

    @pytest.mark.parametrize("order", ["arena_first", "pool_first"])
    def test_tracker_owns_blocks_workers_attach(self, order):
        """Workers share the coordinator's resource tracker and never
        unregister: a clean run prints no tracker error, and the blocks
        of a call in flight when its coordinator is killed are all
        reclaimed."""
        _, _, stderr, _ = _run_coordinator(order, "exit")
        assert "Traceback" not in stderr and "resource_tracker" not in stderr
        _, staged, stderr, survivors = _run_coordinator(order, "kill_busy")
        assert survivors == []
        assert "Traceback" not in stderr
        assert staged
        assert [name for name in staged if os.path.exists(name)] == []

    def test_pool_holds_no_blob_mappings(self):
        """A worker closes a frozen state's blob mapping with its task,
        so a long-lived worker does not pin every blob it ever read."""
        with MultiprocessingExecutor(2) as executor:
            for i in range(6):
                frozen = freeze_state({"w": np.full(64, float(i))})
                executor.map_tasks(thaw_state, [frozen, frozen])
                for pid in executor.worker_pids:
                    assert _shm_mappings(pid) == set()

    @pytest.mark.parametrize("where", ["pool", "remote_host"])
    def test_no_worker_maps_a_finished_call(self, where):
        """Six sequential calls, each staging two EncodedFlows: every
        task maps its blocks while it runs, and once a call returns no
        worker (a pool worker, or a --jobs 2 host's pool worker) still
        maps any block."""
        from repro.runtime.remote import RemoteExecutor, spawn_worker_host

        host = None
        if where == "pool":
            executor = MultiprocessingExecutor(2)
        else:
            host = spawn_worker_host(jobs=2, env=_HOST_ENV)
            executor = RemoteExecutor(hosts=[host.address])
        rng = np.random.default_rng(0)
        try:
            for call in range(6):
                tasks = [EncodedFlows(
                    metadata=rng.normal(size=(4, 3)),
                    measurements=rng.normal(size=(4, 2, 2)),
                    gen_flags=rng.uniform(size=(4, 2))) for _ in range(2)]
                results = executor.map_tasks(_encoded_probe, tasks)
                assert [total for _, total, _ in results] == \
                    [float(t.metadata.sum()) for t in tasks]
                assert all(len(mapped) == 3 for _, _, mapped in results)
                for pid, _, _ in results:
                    assert _shm_mappings(pid) == set(), (call, pid)
        finally:
            executor.close()
            if host is not None:
                host.stop()


#: Environment for a spawned worker host: it must import ``repro`` and
#: this module (task functions pickle by reference).
_HOST_ENV = {"PYTHONPATH": os.pathsep.join(
    [_SRC, str(Path(__file__).resolve().parents[1]),
     os.environ.get("PYTHONPATH", "")])}


def _shm_mappings(pid: int) -> set:
    """Shared-memory blocks the process maps right now."""
    with open(f"/proc/{pid}/maps") as handle:
        return {line.split()[5] for line in handle
                if "/dev/shm/repro" in line}


def _encoded_probe(encoded):
    """Report the worker pid, a checksum, and the blocks mapped while
    the task runs."""
    return (os.getpid(), float(encoded.metadata.sum()),
            _shm_mappings(os.getpid()))
