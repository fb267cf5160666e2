"""Tests for the ``remote`` executor backend: wire framing, task
manifests, the two-host loopback parity suite, the fault model, and
the serve/telemetry integration that rides on it.

Worker hosts are real ``python -m repro.runtime.remote_worker``
subprocesses on loopback ephemeral ports.  They unpickle task
functions by module reference, so this module (and ``src/``) is put on
their ``PYTHONPATH`` explicitly — the fixtures never depend on where
pytest was invoked from.
"""

import os
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import NetShare, NetShareConfig, load_dataset
from repro.runtime import get_executor
from repro.runtime.chunk_tasks import freeze_state
from repro.runtime.executor import MAX_TASK_ATTEMPTS
from repro.runtime.remote import (
    HOSTS_ENV_VAR,
    MAX_CONNECT_FAILURES,
    RECONNECT_BASE,
    RECONNECT_CAP,
    WIRE_VERSION,
    RemoteExecutor,
    _HostLink,
    parse_hosts,
    spawn_worker_host,
)
from repro.core.flow_encoder import EncodedFlows
from repro.runtime import FrozenState
from repro.runtime.serialization import (
    BlobManifest,
    manifest_hashes,
    pack_tasks,
    unpack_task,
)
from repro.runtime.shm import Attachments, SharedArena
from repro.runtime.wire import FrameError, recv_frame, send_frame
from repro.serve import ServeClient, ServeConfig, ServeDaemon, \
    derive_client_seed
from repro.telemetry import load_journal, load_journals, \
    metrics as telemetry_metrics, session as telemetry_session

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Environment for spawned worker hosts: they must import both
#: ``repro`` and this test module (task functions pickle by reference).
HOST_ENV = {"PYTHONPATH": os.pathsep.join(
    [os.path.join(REPO_ROOT, "src"), REPO_ROOT,
     os.environ.get("PYTHONPATH", "")])}


def _square(x):
    """Module-level so worker hosts can unpickle it by reference."""
    return x * x


def _slow_square(x):
    time.sleep(0.2)
    return x * x


def _scaled_sum(task):
    """An array task (the array ships as a blob): reduce it."""
    return float(task["ref"].sum()) * task["scale"]


def _state_key_sum(task):
    """A frozen-state task: thaw and reduce one entry."""
    state = task["state"].thaw()
    return float(state["weights"]["w"].sum()) + task["offset"]


def _hosts_string(hosts):
    return ",".join(h.label for h in hosts)


@pytest.fixture(scope="module")
def hosts():
    """Two loopback worker hosts, with one and two pool workers — the
    two-worker host exercises the host-local fan-out."""
    spawned = [spawn_worker_host(jobs=1, env=HOST_ENV),
               spawn_worker_host(jobs=2, env=HOST_ENV)]
    yield spawned
    for host in spawned:
        host.stop()


@pytest.fixture()
def executor(hosts):
    ex = RemoteExecutor(hosts=[h.address for h in hosts])
    yield ex
    ex.close()


# ----------------------------------------------------------------------
class TestWire:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = ("task", 3, {"x": np.arange(4)})
            nbytes = send_frame(a, payload)
            assert nbytes == len(pickle.dumps(
                payload, protocol=pickle.HIGHEST_PROTOCOL))
            received = recv_frame(b)
            assert received[:2] == ("task", 3)
            np.testing.assert_array_equal(received[2]["x"], np.arange(4))
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x00\x00\x00\x00\xff partial")
            a.close()
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_implausible_header_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff" * 8)
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestMalformedFrames:
    """A frame that does not decode or does not match its kind's shape
    ends only its own session, on the host and on the coordinator."""

    FRAMES = {
        "undecodable": b"\x80\x05 this is not a pickle",
        "blob_size": pickle.dumps(("blob", "h" * 64, "<f8", (4,),
                                   b"\x00" * 8)),
        # reshape() would infer the -1 and accept a bare int.
        "blob_negative_dim": pickle.dumps(("blob", "h" * 64, "<f8", (-1,),
                                           b"\x00" * 24)),
        "blob_int_shape": pickle.dumps(("blob", "h" * 64, "<f8", 3,
                                        b"\x00" * 24)),
        "task_arity": pickle.dumps(("task", 0, _square)),
        # No frame stops a host or asks it for a liveness reply.
        "shutdown": pickle.dumps(("shutdown",)),
        "ping": pickle.dumps(("ping",)),
    }

    def test_host_survives_bad_frames(self, tmp_path):
        journal = tmp_path / "host"
        host = spawn_worker_host(jobs=1, env=HOST_ENV,
                                 journal_dir=str(journal))
        try:
            for frame in self.FRAMES.values():
                sock = socket.create_connection(host.address, timeout=10)
                try:
                    send_frame(sock, ("hello", {"version": WIRE_VERSION}))
                    assert recv_frame(sock)[0] == "hello"
                    sock.sendall(struct.pack(">Q", len(frame)) + frame)
                    assert recv_frame(sock) is None  # session ended
                finally:
                    sock.close()
                assert host.process.poll() is None
            # A fresh coordinator maps correctly on the same host.
            ex = RemoteExecutor(hosts=[host.address])
            try:
                assert ex.map_tasks(_square, [1, 2, 3]) == [1, 4, 9]
            finally:
                ex.close()
        finally:
            host.stop()
        assert host.process.returncode == 0
        _, events = load_journals([str(journal)])
        bad = [e for e in events if e["event"] == "host_bad_frame"]
        assert len(bad) == len(self.FRAMES)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tasks_beyond_the_slots_end_only_the_session(self, tmp_path,
                                                         jobs):
        """A coordinator keeps at most a host's slot count of tasks in
        flight; a peer that sends more ends only its own session.  The
        session also ends at the peer although the pool worker that ran
        its first task, forked during it, holds a copy of its socket."""
        journal = tmp_path / "host"
        host = spawn_worker_host(jobs=jobs, env=HOST_ENV,
                                 journal_dir=str(journal))
        try:
            sock = socket.create_connection(host.address, timeout=10)
            try:
                send_frame(sock, ("hello", {"version": WIRE_VERSION}))
                assert recv_frame(sock)[0] == "hello"
                packed, _ = pack_tasks(list(range(jobs + 2)))
                send_frame(sock, ("task", 0, _square, packed[0], False))
                assert recv_frame(sock)[:4] == ("result", 0, "ok", 0)
                for index in range(1, jobs + 2):
                    send_frame(sock, ("task", index, _slow_square,
                                      packed[index], False))
                assert recv_frame(sock) is None  # session ended
            finally:
                sock.close()
            assert host.process.poll() is None
        finally:
            host.stop()
        assert host.process.returncode == 0
        _, events = load_journals([str(journal)])
        assert [e["event"] for e in events].count("host_bad_frame") == 1

    def test_undecodable_reply_takes_host_down_path(self):
        """A reply that does not unpickle is a dead host: the task is
        re-queued and the redialed host answers it."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        listener.settimeout(10)

        def fake_host():
            for reply in (None, ("ok", 42)):
                conn, _ = listener.accept()
                with conn:
                    recv_frame(conn)
                    send_frame(conn, ("hello", {"version": WIRE_VERSION,
                                                "slots": 1}))
                    task = recv_frame(conn)
                    if reply is None:
                        junk = b"\x80\x05 garbage"
                        conn.sendall(struct.pack(">Q", len(junk)) + junk)
                        continue
                    send_frame(conn, ("result", task[1]) + reply + (None,))
                    recv_frame(conn)  # bye

        thread = threading.Thread(target=fake_host, daemon=True)
        thread.start()
        ex = RemoteExecutor(hosts=[listener.getsockname()[:2]])
        try:
            assert ex.map_tasks(_square, [7]) == [42]
            assert ex.stats["host_failures"] == 1
            assert ex.stats["retries"] == 1
        finally:
            ex.close()
            thread.join(timeout=10)
            listener.close()


class TestParseHosts:
    def test_string_and_pairs(self):
        assert parse_hosts("a:1, b:2") == [("a", 1), ("b", 2)]
        assert parse_hosts([("a", 1), ["b", "2"]]) == [("a", 1), ("b", 2)]
        assert parse_hosts(["a:1"]) == [("a", 1)]

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(HOSTS_ENV_VAR, "envhost:9")
        assert parse_hosts(None) == [("envhost", 9)]

    def test_missing_hosts_raise_with_guidance(self, monkeypatch):
        monkeypatch.delenv(HOSTS_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match=HOSTS_ENV_VAR):
            parse_hosts(None)

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            parse_hosts("no-port")
        with pytest.raises(ValueError):
            parse_hosts(",")

    def test_get_executor_selects_remote_for_hosts(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv(HOSTS_ENV_VAR, raising=False)
        ex = get_executor(2, hosts="a:1,b:2")
        assert isinstance(ex, RemoteExecutor)
        assert ex.name == "remote"
        assert ex.host_labels == ["a:1", "b:2"]
        ex.close()
        # Hosts select remote at any job count, and REPRO_HOSTS alone
        # selects it too.
        ex = get_executor(1, hosts="a:1")
        assert ex.name == "remote"
        ex.close()
        monkeypatch.setenv(HOSTS_ENV_VAR, "envhost:9")
        ex = get_executor()
        assert ex.name == "remote"
        assert ex.host_labels == ["envhost:9"]
        ex.close()

    def test_backoff_grows_to_cap(self):
        link = _HostLink(("a", 1))
        values = []
        for failures in range(1, 10):
            link.failures = failures
            values.append(link.backoff())
        assert values[0] == RECONNECT_BASE
        assert values == sorted(values)
        assert values[-1] == RECONNECT_CAP


# ----------------------------------------------------------------------
class TestPackUnpack:
    def test_shared_state_is_one_blob(self):
        state = {"weights": {"w": np.arange(12.0).reshape(3, 4)}}
        frozen = freeze_state(state)
        tasks = [{"state": frozen, "offset": float(i)} for i in range(4)]
        packed, blobs = pack_tasks(tasks)
        assert len(blobs) == 1  # four tasks, one deduped payload
        manifest = packed[0]["state"]
        assert isinstance(manifest, FrozenState)
        assert isinstance(manifest.payload, BlobManifest)
        assert manifest.payload.content_hash == frozen.content_hash
        assert manifest_hashes(packed[0]) == {frozen.content_hash}

    def test_round_trip_rebuilds_shm_shapes(self):
        """Top-level arrays and frozen states become blobs; nested
        arrays pickle inline.  Unpacked against staged blocks, the task
        is plain values again."""
        payload = np.linspace(0.0, 1.0, 24).reshape(4, 6)
        frozen = freeze_state({"weights": {"w": np.ones((2, 2))}})
        task = {"ref": payload, "state": frozen, "scale": 3,
                "nested": [payload, ("keep", 7)]}
        packed, blobs = pack_tasks([task])
        assert isinstance(packed[0]["ref"], BlobManifest)
        assert packed[0]["scale"] == 3
        assert packed[0]["nested"][0] is payload
        # Play the host's part: stage the blobs in an arena and rebuild
        # the task from views of its blocks.
        with SharedArena(prefix="reprotest") as host_arena, \
                Attachments() as attachments:
            names = {h: host_arena.share_array(a).name
                     for h, a in blobs.items()}
            rebuilt = unpack_task(packed[0], names, attachments)
            np.testing.assert_array_equal(rebuilt["ref"], payload)
            assert rebuilt["state"].content_hash == frozen.content_hash
            np.testing.assert_array_equal(
                rebuilt["state"].thaw()["weights"]["w"], np.ones((2, 2)))
            assert rebuilt["nested"][1] == ("keep", 7)

    def test_blob_manifest_nbytes(self):
        blob = BlobManifest(content_hash="x", shape=(3, 5), dtype="<f8")
        assert blob.nbytes == 3 * 5 * 8

    def test_encoded_manifest_walks_all_three_blobs(self):
        manifest = EncodedFlows(
            metadata=BlobManifest("a", (1,), "<f8"),
            measurements=BlobManifest("b", (1,), "<f8"),
            gen_flags=BlobManifest("c", (1,), "<f8"))
        assert manifest_hashes({"enc": manifest}) == {"a", "b", "c"}


# ----------------------------------------------------------------------
class TestLoopbackMap:
    def test_matches_serial_and_orders_results(self, executor):
        tasks = list(range(11))
        assert executor.map_tasks(_square, tasks) == [x * x for x in tasks]
        # The hello exchange aggregated real slot counts: 1 + 2.
        assert executor.jobs == 3
        assert sorted(executor.connected_hosts) == \
            sorted(executor.host_labels)

    def test_empty_task_list(self, executor):
        assert executor.map_tasks(_square, []) == []

    def test_staged_blob_ships_once_per_host(self, executor, hosts):
        payload = np.arange(1024.0)
        tasks = [{"ref": payload, "scale": i} for i in range(6)]
        expected = [float(payload.sum()) * i for i in range(6)]
        assert executor.map_tasks(_scaled_sum, tasks) == expected
        assert executor.stats["blobs_sent"] == len(hosts)
        assert executor.stats["blob_dedup_hits"] > 0
        assert set(executor.ship_counts.values()) == {1}

        # A second map over the *same content* (a new array object)
        # ships zero new blobs: dedup is content-hash keyed and
        # survives across map_tasks calls.
        again = executor.map_tasks(
            _scaled_sum, [{"ref": np.arange(1024.0), "scale": 2}])
        assert again == [float(payload.sum()) * 2]
        assert executor.stats["blobs_sent"] == len(hosts)
        assert set(executor.ship_counts.values()) == {1}

    def test_remote_map_tallies_what_dispatch_counts(self, executor,
                                                     tmp_path):
        """One map's ``remote_map`` event reads the executor's dispatch
        tallies, and telemetry's ``runtime.dispatch_bytes`` counts the
        same task frames."""
        bytes_before = executor.dispatch_bytes
        tasks_before = executor.dispatch_tasks
        with telemetry_session(journal_dir=str(tmp_path)) as journal:
            assert executor.map_tasks(_square, list(range(5))) == \
                [x * x for x in range(5)]
            counted = telemetry_metrics().snapshot()["counters"][
                "runtime.dispatch_bytes"]
            run_dir = journal.directory
        _, events = load_journal(run_dir)
        (event,) = [e for e in events if e["event"] == "remote_map"]
        assert event["tasks"] == executor.dispatch_tasks - tasks_before
        assert event["task_bytes"] == \
            executor.dispatch_bytes - bytes_before > 0
        assert counted == event["task_bytes"]

    def test_frozen_state_tasks(self, executor):
        frozen = freeze_state(
            {"weights": {"w": np.arange(6.0).reshape(2, 3)}})
        tasks = [{"state": frozen, "offset": float(i)} for i in range(5)]
        assert executor.map_tasks(_state_key_sum, tasks) == \
            [15.0 + i for i in range(5)]

    def test_task_error_surfaces(self, executor):
        with pytest.raises(ZeroDivisionError):
            executor.map_tasks(_div_by, [0])

    def test_dispatch_follows_the_configured_host_order(self, hosts):
        """Equally healthy hosts take tasks in the order they were
        listed, whatever their ports: listed in reverse label order, a
        one-task map still ships its blob to the first host only."""
        ordered = sorted(hosts, key=lambda h: h.label, reverse=True)
        ex = RemoteExecutor(hosts=[h.address for h in ordered])
        try:
            task = {"ref": np.arange(8.0), "scale": 1}
            assert ex.map_tasks(_scaled_sum, [task]) == [28.0]
            assert {label for label, _ in ex.ship_counts} == \
                {ordered[0].label}
        finally:
            ex.close()

    def test_closed_executor_rejects_maps(self, hosts):
        ex = RemoteExecutor(hosts=[h.address for h in hosts])
        ex.close()
        ex.close()  # idempotent
        with pytest.raises(RuntimeError):
            ex.map_tasks(_square, [1])


def _div_by(x):
    return 1 // x


def _explode_once(task):
    """Kill this worker process the first time it sees the poison
    value; succeed on the retry (the marker file is the memory)."""
    value, marker = task
    if value == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return value * 10


def _stall_once(task):
    """Hang past the per-task deadline the first time task 0 runs;
    answer at once on the retry (the marker file is the memory)."""
    value, marker = task
    if value == 0 and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(3.0)
    return value * 10


def _always_explode(_):
    os._exit(1)


class TestHostPool:
    """A host runs every task in its own pipe-worker pool, at any
    ``--jobs``: a worker that dies mid-task is replaced and its task
    resent on the host, within MAX_TASK_ATTEMPTS dispatches, and the
    coordinator sees no host failure."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_death_is_retried_on_the_host(self, tmp_path, jobs):
        journal = tmp_path / "host"
        host = spawn_worker_host(jobs=jobs, env=HOST_ENV,
                                 journal_dir=str(journal))
        marker = str(tmp_path / "exploded")
        ex = RemoteExecutor(hosts=[host.address])
        try:
            results = ex.map_tasks(_explode_once,
                                   [(i, marker) for i in range(6)])
            assert results == [i * 10 for i in range(6)]
            assert os.path.exists(marker)
            assert ex.stats["host_failures"] == 0
        finally:
            ex.close()
            host.stop()
        _, events = load_journals([str(journal)])
        deaths = [e for e in events if e["event"] == "host_worker_death"]
        assert len(deaths) == 1
        assert deaths[0]["task"] == 2
        assert deaths[0]["attempt"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spent_attempts_fail_the_task_and_the_host_recovers(self, jobs):
        host = spawn_worker_host(jobs=jobs, env=HOST_ENV)
        ex = RemoteExecutor(hosts=[host.address])
        try:
            with pytest.raises(RuntimeError,
                               match=f"failed {MAX_TASK_ATTEMPTS} times "
                                     "on host"):
                ex.map_tasks(_always_explode, [0, 1])
            assert ex.map_tasks(_square, [1, 2, 3]) == [1, 4, 9]
        finally:
            ex.close()
            host.stop()

    def test_close_from_another_thread_drains_in_flight_map(self, hosts):
        ex = RemoteExecutor(hosts=[hosts[1].address])  # the --jobs 2 host
        try:
            # Connect first, so the map below goes straight to the host.
            assert ex.map_tasks(_square, [1, 2]) == [1, 4]
            started = threading.Event()
            outcome = {}

            def mapper():
                started.set()
                outcome["results"] = ex.map_tasks(_slow_square,
                                                  list(range(4)))

            thread = threading.Thread(target=mapper)
            thread.start()
            started.wait(5.0)
            time.sleep(0.1)  # let the dispatch reach the host
            closed_at = time.monotonic()
            ex.close()  # must block until the in-flight map finishes
            close_seconds = time.monotonic() - closed_at
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert outcome["results"] == [x * x for x in range(4)]
            assert close_seconds > 0.05
            with pytest.raises(RuntimeError, match="closed"):
                ex.map_tasks(_square, [1])
        finally:
            ex.close()


# ----------------------------------------------------------------------
class TestFaultModel:
    def test_host_death_mid_map_requeues(self):
        victim = spawn_worker_host(jobs=1, env=HOST_ENV)
        survivor = spawn_worker_host(jobs=1, env=HOST_ENV)
        ex = RemoteExecutor(hosts=[victim.address, survivor.address])
        try:
            tasks = list(range(10))
            killer = threading.Timer(0.3, victim.kill)
            killer.start()
            try:
                results = ex.map_tasks(_slow_square, tasks)
            finally:
                killer.cancel()
            # Zero lost, zero duplicated: exact order and multiplicity.
            assert results == [x * x for x in tasks]
            assert ex.stats["host_failures"] >= 1
            assert ex.stats["retries"] >= 1
        finally:
            ex.close()
            survivor.stop()
            victim.stop()

    def test_task_deadline_requeues_a_hung_task(self, tmp_path,
                                                 monkeypatch):
        """REPRO_REMOTE_TIMEOUT bounds how long a host may hold a task:
        the host that hangs is taken down, its task re-runs on the
        other host, and the executor keeps working."""
        monkeypatch.setenv("REPRO_REMOTE_TIMEOUT", "1")
        first = spawn_worker_host(jobs=1, env=HOST_ENV)
        second = spawn_worker_host(jobs=1, env=HOST_ENV)
        ex = RemoteExecutor(hosts=[first.address, second.address])
        try:
            tasks = [(value, str(tmp_path / "stalled"))
                     for value in range(4)]
            expected = [value * 10 for value in range(4)]
            assert ex.map_tasks(_stall_once, tasks) == expected
            assert ex.stats["host_failures"] == 1
            assert ex.stats["retries"] >= 1
            assert ex.map_tasks(_stall_once, tasks) == expected
        finally:
            ex.close()
            first.stop()
            second.stop()

    def test_all_hosts_dead_raises(self):
        host = spawn_worker_host(jobs=1, env=HOST_ENV)
        ex = RemoteExecutor(hosts=[host.address])
        try:
            assert ex.map_tasks(_square, [2]) == [4]
            host.kill()
            with pytest.raises(RuntimeError,
                               match="no remote host reachable"):
                ex.map_tasks(_square, [3])
            assert ex._links[0].failures >= MAX_CONNECT_FAILURES
        finally:
            ex.close()
            host.stop()

    def test_flapping_host_backs_off_while_healthy_host_serves(self, hosts):
        """A peer that accepts and slams the connection must not stall
        the map or burn task attempts: reconnects back off while the
        healthy hosts complete everything."""
        flaps = []
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        listener.settimeout(0.1)
        stop = threading.Event()

        def flap():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                flaps.append(time.monotonic())
                conn.close()

        thread = threading.Thread(target=flap, daemon=True)
        thread.start()
        flappy_addr = listener.getsockname()[:2]
        ex = RemoteExecutor(
            hosts=[flappy_addr] + [h.address for h in hosts])
        try:
            tasks = list(range(8))
            assert ex.map_tasks(_slow_square, tasks) == \
                [x * x for x in tasks]
            flappy = ex._links[0]
            assert not flappy.connected
            assert flappy.failures >= 1
            assert flappy.backoff() >= RECONNECT_BASE
            if len(flaps) >= 3:  # backoff: dial gaps must widen
                gaps = [b - a for a, b in zip(flaps, flaps[1:])]
                assert max(gaps) > min(gaps)
        finally:
            ex.close()
            stop.set()
            thread.join(timeout=2.0)
            listener.close()

    def test_evicted_blob_triggers_need_and_reship(self):
        """--blob-capacity 1 host: blob A, then B (evicts A), then A
        again — the coordinator's ledger says A was shipped, the host
        answers ``need``, and the re-ship heals the map."""
        host = spawn_worker_host(jobs=1, blob_capacity=1, env=HOST_ENV)
        ex = RemoteExecutor(hosts=[host.address])
        try:
            a = np.arange(64.0)
            b = np.arange(64.0) * 2
            sum_a, sum_b = float(np.arange(64.0).sum()), \
                float((np.arange(64.0) * 2).sum())
            assert ex.map_tasks(_scaled_sum,
                                [{"ref": a, "scale": 1}]) == [sum_a]
            assert ex.map_tasks(_scaled_sum,
                                [{"ref": b, "scale": 1}]) == [sum_b]
            assert ex.map_tasks(_scaled_sum,
                                [{"ref": a, "scale": 3}]) == [sum_a * 3]
            # Blob A crossed the wire twice: once cold, once re-shipped
            # after the ``need`` round-trip; blob B shipped once.
            assert sorted(ex.ship_counts.values()) == [1, 2]
            assert ex.stats["blobs_sent"] == 3
        finally:
            ex.close()
            host.stop()


# ----------------------------------------------------------------------
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


class TestRemoteParity:
    """The acceptance criterion: remote output is bit-identical to the
    serial oracle for fit, generate, and serve."""

    def test_fit_bit_identical(self, netflow, fitted_serial, hosts):
        remote = NetShare(fast_config(
            jobs=2, hosts=_hosts_string(hosts))).fit(netflow)
        assert remote.backend == "remote"
        assert len(remote._chunks) == len(fitted_serial._chunks)
        for a, b in zip(fitted_serial._chunks, remote._chunks):
            sa, sb = a.model.state_dict(), b.model.state_dict()
            assert sa.keys() == sb.keys()
            for key in sa:
                np.testing.assert_array_equal(sa[key], sb[key])

    def test_generate_bit_identical(self, fitted_serial, hosts):
        base = fitted_serial.generate(80, seed=3)
        remote = fitted_serial.generate(80, seed=3, jobs=2,
                                        hosts=_hosts_string(hosts))
        for name, column in base._columns().items():
            np.testing.assert_array_equal(
                remote._columns()[name], column, err_msg=name)

    def test_serve_bit_identical_and_cached(self, fitted_serial, hosts,
                                            tmp_path):
        path = tmp_path / "remote_model.npz"
        fitted_serial.save(path)
        config = ServeConfig(jobs=1, hosts=_hosts_string(hosts))
        daemon = ServeDaemon(models={"ugr16": str(path)}, config=config)
        daemon.start()
        try:
            with ServeClient(*daemon.address, client_id="r") as client:
                trace = client.generate(40, "ugr16", seed=5)
                meta = dict(client.last_response)
                again = client.generate(40, "ugr16", seed=5)
                meta2 = dict(client.last_response)
        finally:
            daemon.shutdown()
        derived = derive_client_seed("r", 5)
        assert meta["derived_seed"] == derived
        offline = fitted_serial.generate(40, seed=derived)
        for name, column in offline._columns().items():
            np.testing.assert_array_equal(
                trace._columns()[name], column, err_msg=name)
        # Second identical request: served from the result cache, and
        # still bit-identical.
        assert meta2.get("cached") is True
        for name, column in offline._columns().items():
            np.testing.assert_array_equal(
                again._columns()[name], column, err_msg=name)


# ----------------------------------------------------------------------
class TestJournalShards:
    def test_coordinator_and_host_shards_merge(self, tmp_path):
        host_dir = tmp_path / "host_journal"
        coord_dir = tmp_path / "coord_journal"
        host = spawn_worker_host(jobs=1, journal_dir=str(host_dir),
                                 env=HOST_ENV)
        try:
            with telemetry_session(journal_dir=str(coord_dir)):
                ex = RemoteExecutor(hosts=[host.address])
                assert ex.map_tasks(_square, [1, 2, 3]) == [1, 4, 9]
                ex.close()
        finally:
            host.stop()
        meta, events = load_journals([str(coord_dir), str(host_dir)])
        kinds = {event["event"] for event in events}
        assert {"remote_host_connect", "remote_map",
                "host_start", "host_connect", "host_task",
                "host_stop"} <= kinds
        assert "+" in meta["run_id"]
        assert len(meta["shards"]) == 2
        # Every event kept its own run_id, and the merge is ts-ordered.
        assert all("run_id" in event for event in events)
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)
        # Host task events carry the host identity for attribution.
        host_tasks = [e for e in events if e["event"] == "host_task"]
        assert len(host_tasks) == 3
        assert all(e["host"] for e in host_tasks)
