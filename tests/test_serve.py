"""Tests for repro.serve: protocol, registry, coalescer, daemon.

The expensive fixture (one trained + saved model) is module-scoped;
every daemon in these tests runs on an ephemeral port with the serial
executor so the whole file stays in tier-1 time budget.
"""

import io
import json
import os
import shutil
import socket
import socketserver
import threading
import time

import numpy as np
import pytest

from repro import NetShare, NetShareConfig, load_dataset
from repro.analysis import check_paths
from repro.nn import bucket_size as nn_bucket_size
from repro.nn.tape import bucket_size as tape_bucket_size
from repro.core.netshare import GenerateSession
from repro.serve import (
    ModelRegistry,
    PROTOCOL_VERSION,
    ProtocolError,
    ResultCache,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServeError,
    ServeOverloadedError,
    derive_client_seed,
    payload_to_trace,
    trace_to_payload,
)
from repro.serve import coalescer
from repro.serve.protocol import (
    decode_message,
    encode_message,
    ok_response,
    overloaded_response,
    read_message,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fast_config(**kwargs):
    defaults = dict(n_chunks=2, epochs_seed=3, epochs_fine_tune=2,
                    ip2vec_public_records=600, batch_size=32, seed=0)
    defaults.update(kwargs)
    return NetShareConfig(**defaults)


@pytest.fixture(scope="module")
def netflow():
    return load_dataset("ugr16", n_records=350, seed=0)


@pytest.fixture(scope="module")
def model_path(netflow, tmp_path_factory):
    model = NetShare(fast_config()).fit(netflow)
    path = tmp_path_factory.mktemp("serve_models") / "ugr16.npz"
    model.save(path)
    return str(path)


@pytest.fixture(scope="module")
def offline_model(model_path):
    return NetShare.load(model_path)


# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        message = {"op": "generate", "n_records": 7, "pi": 0.1 + 0.2}
        frame = encode_message(message)
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        assert decode_message(frame) == message

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_read_message_eof(self):
        assert read_message(io.BytesIO(b"")) is None
        stream = io.BytesIO(encode_message({"op": "healthz"}))
        assert read_message(stream) == {"op": "healthz"}
        assert read_message(stream) is None

    def test_trace_payload_bit_identical(self, netflow):
        payload = trace_to_payload(netflow)
        # The payload must survive an actual JSON round trip, since
        # that is what the socket does.
        decoded = json.loads(json.dumps(payload))
        rebuilt = payload_to_trace(decoded)
        assert type(rebuilt) is type(netflow)
        for name, column in netflow._columns().items():
            got = rebuilt._columns()[name]
            assert got.dtype == column.dtype, name
            assert np.array_equal(got, column), name

    def test_payload_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError):
            payload_to_trace({"kind": "mystery", "columns": {}})

    def test_derived_seed_stable_and_namespaced(self):
        a = derive_client_seed("alice", 7)
        assert a == derive_client_seed("alice", 7)  # process-stable
        assert 0 <= a < 2 ** 63
        assert a != derive_client_seed("bob", 7)
        assert a != derive_client_seed("alice", 8)
        # Empty id is still a valid namespace.
        assert derive_client_seed("", 7) != a


# ----------------------------------------------------------------------
class TestBucketGrid:
    """Satellite: one bucket grid shared by nn, NetShare, and serve."""

    def test_single_public_grid_function(self):
        assert coalescer.bucket_size is nn_bucket_size
        assert nn_bucket_size is tape_bucket_size

    def test_bucket_values_are_fixed_points(self):
        for n in [1, 2, 3, 5, 17, 100, 255, 256, 257, 1000, 5000]:
            b = nn_bucket_size(n)
            assert b >= n
            assert nn_bucket_size(b) == b

    def test_session_plans_on_the_grid(self, offline_model):
        session = GenerateSession(offline_model, 173, seed=5)
        tasks = session.plan_round()
        assert tasks
        for task in tasks:
            assert task.n_flows == nn_bucket_size(task.n_flows)


# ----------------------------------------------------------------------
class TestRegistry:
    def test_unknown_name_raises(self):
        registry = ModelRegistry(capacity=2)
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_hit_miss_accounting(self, model_path):
        registry = ModelRegistry(capacity=2)
        registry.register("m", model_path)
        assert registry.hit_rate() is None
        first = registry.get("m")
        second = registry.get("m")
        assert second is first
        assert (registry.hits, registry.misses) == (1, 1)
        assert registry.hit_rate() == 0.5
        assert registry.resident() == ["m"]

    def test_lru_eviction(self, model_path, tmp_path):
        other = tmp_path / "other.npz"
        shutil.copy(model_path, other)
        registry = ModelRegistry(capacity=1)
        registry.register("a", model_path)
        registry.register("b", str(other))
        registry.get("a")
        registry.get("b")
        assert registry.resident() == ["b"]
        assert registry.evictions == 1
        registry.get("a")  # reload after eviction = a miss
        assert registry.misses == 3

    def test_mtime_change_bumps_generation(self, model_path, tmp_path):
        copy = tmp_path / "reload.npz"
        shutil.copy(model_path, copy)
        registry = ModelRegistry(capacity=2)
        registry.register("m", str(copy))
        first = registry.get("m")
        assert registry.get("m").generation == first.generation
        stat = os.stat(copy)
        os.utime(copy, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10_000))
        reloaded = registry.get("m")
        assert reloaded.generation > first.generation
        assert registry.get("m") is reloaded

    def test_frozen_blobs_preloaded(self, model_path):
        registry = ModelRegistry(capacity=2)
        registry.register("m", model_path)
        entry = registry.get("m")
        assert entry.encoder_state is not None
        assert set(entry.model_states) == {
            c.index for c in entry.model._chunks}
        assert entry.kind == "netflow"


# ----------------------------------------------------------------------
@pytest.fixture()
def daemon(model_path):
    config = ServeConfig(coalesce_window=0.02, jobs=1,
                         queue_limit=8, retry_after=0.05)
    instance = ServeDaemon(models={"ugr16": model_path}, config=config)
    instance.start()
    yield instance
    instance.shutdown()


def _raw_request(address, message):
    """One request over a throwaway socket, bypassing ServeClient."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(encode_message(message))
        with sock.makefile("rb") as stream:
            return read_message(stream)


class TestDaemon:
    def test_healthz_and_models(self, daemon):
        with ServeClient(*daemon.address) as client:
            health = client.healthz()
            assert health["accepting"] is True
            assert health["models"] == ["ugr16"]
            models = client.models()
            assert models["models"] == ["ugr16"]
            assert models["registry"]["capacity"] == 4

    def test_unknown_op_is_error_not_disconnect(self, daemon):
        response = _raw_request(daemon.address, {"op": "transmogrify"})
        assert response["status"] == "error"
        assert "unknown op" in response["message"]
        assert response["version"] == PROTOCOL_VERSION

    def test_bad_frame_answered(self, daemon):
        with socket.create_connection(daemon.address, timeout=30.0) as sock:
            sock.sendall(b"this is not json\n")
            with sock.makefile("rb") as stream:
                response = read_message(stream)
        assert response["status"] == "error"

    def test_unknown_model_is_error(self, daemon):
        with ServeClient(*daemon.address) as client:
            with pytest.raises(ServeError, match="unknown model"):
                client.generate(10, "missing")

    def test_interleaved_clients_match_offline(self, daemon,
                                               offline_model):
        """The headline guarantee: concurrent mixed-size requests from
        different clients, coalesced into shared batches, are each
        bit-identical to an offline generate with the derived seed."""
        jobs = [("alice", 40, 3), ("bob", 75, 3), ("carol", 40, 9),
                ("alice", 33, 4)]
        served = {}
        errors = []

        def fire(idx, client_id, n, seed):
            try:
                with ServeClient(*daemon.address,
                                 client_id=client_id) as client:
                    served[idx] = (client.generate(n, "ugr16", seed=seed),
                                   dict(client.last_response))
            except Exception as exc:  # surfaced via the errors list
                errors.append(exc)

        threads = [threading.Thread(target=fire, args=(i,) + job)
                   for i, job in enumerate(jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for idx, (client_id, n, seed) in enumerate(jobs):
            derived = derive_client_seed(client_id, seed)
            offline = offline_model.generate(n, seed=derived)
            trace, meta = served[idx]
            assert meta["derived_seed"] == derived
            assert len(trace) == len(offline) == n
            for name, column in offline._columns().items():
                assert np.array_equal(trace._columns()[name], column), \
                    (idx, name)

    def test_metrics_sections_and_hit_rate(self, daemon):
        with ServeClient(*daemon.address, client_id="m") as client:
            for seed in range(3):
                client.generate(20, "ugr16", seed=seed)
            metrics = client.metrics()
        for section in ("serve", "process", "registry"):
            assert section in metrics
        counters = metrics["serve"]["counters"]
        assert counters["serve.generate.requests"] == 3.0
        assert counters["serve.batches"] >= 1.0
        assert metrics["serve"]["histograms"][
            "serve.request.latency_seconds"]["count"] == 3
        registry = metrics["registry"]
        hit_rate = registry["hits"] / (registry["hits"] +
                                       registry["misses"])
        assert hit_rate >= 0.5  # one cold load, then resident


class TestAdmissionControl:
    def _wait_depth(self, daemon, depth, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if daemon.queue.depth == depth:
                return
            time.sleep(0.01)
        raise AssertionError(
            f"queue depth never reached {depth} "
            f"(now {daemon.queue.depth})")

    def _wait_held(self, daemon, count, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if daemon.held == count:
                return
            time.sleep(0.01)
        raise AssertionError(
            f"scheduler never held {count} request(s) at the gate "
            f"(holds {daemon.held})")

    def test_queue_full_rejected_with_retry_after(self, model_path):
        config = ServeConfig(coalesce_window=0.01, jobs=1,
                             queue_limit=1, retry_after=0.125)
        with ServeDaemon(models={"ugr16": model_path},
                         config=config) as daemon:
            daemon.gate.clear()  # hold the scheduler before batch 1
            background = []

            def fire(client_id):
                with ServeClient(*daemon.address,
                                 client_id=client_id) as client:
                    background.append(client.generate(15, "ugr16"))

            # First request: collected into the held batch (leaves the
            # queue).  Second: occupies the single queue slot.  Wait
            # until the scheduler holds request one at the gate — an
            # empty queue alone is also the state before request one
            # arrives, and a second request sent then would join its
            # batch instead of queueing.
            one = threading.Thread(target=fire, args=("one",))
            one.start()
            self._wait_held(daemon, 1)
            self._wait_depth(daemon, 0)
            two = threading.Thread(target=fire, args=("two",))
            two.start()
            self._wait_depth(daemon, 1)
            # Third: queue full -> immediate overloaded rejection.
            with ServeClient(*daemon.address, client_id="three",
                             max_retries=0) as client:
                with pytest.raises(ServeOverloadedError) as excinfo:
                    client.generate(15, "ugr16")
            assert excinfo.value.retry_after == 0.125
            daemon.gate.set()
            one.join(timeout=60)
            two.join(timeout=60)
            assert len(background) == 2

    def test_client_honours_retry_after(self, netflow):
        """A fake daemon answers overloaded once, then ok; the client
        must sleep retry_after between the two attempts."""
        payload = trace_to_payload(netflow.subset(slice(0, 5)))
        request_times = []

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                while True:
                    message = read_message(self.rfile)
                    if message is None:
                        return
                    request_times.append(time.monotonic())
                    if len(request_times) == 1:
                        response = overloaded_response(0.2)
                    else:
                        response = ok_response(trace=payload)
                    self.wfile.write(encode_message(response))
                    self.wfile.flush()

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0),
                                                 Handler)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            with ServeClient(*server.server_address[:2]) as client:
                trace = client.generate(5, "whatever")
            assert len(trace) == 5
            assert len(request_times) == 2
            assert request_times[1] - request_times[0] >= 0.2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestShutdown:
    def test_drain_finishes_in_flight_requests(self, model_path,
                                               offline_model):
        config = ServeConfig(coalesce_window=0.01, jobs=1)
        daemon = ServeDaemon(models={"ugr16": model_path}, config=config)
        daemon.start()
        daemon.gate.clear()
        outcome = {}

        def fire():
            with ServeClient(*daemon.address, client_id="d") as client:
                outcome["trace"] = client.generate(25, "ugr16", seed=2)

        thread = threading.Thread(target=fire)
        thread.start()
        deadline = time.monotonic() + 5.0
        while daemon.queue.depth == 0 and not daemon._stop.is_set():
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        # Shutdown while the request is queued/held: drain must answer
        # it with real data, not an error.
        daemon.shutdown(drain=True)
        thread.join(timeout=60)
        assert "trace" in outcome
        offline = offline_model.generate(
            25, seed=derive_client_seed("d", 2))
        assert np.array_equal(outcome["trace"].src_ip, offline.src_ip)
        # Idempotent: a second shutdown is a no-op.
        daemon.shutdown()

    def test_no_drain_errors_queued_requests(self, model_path):
        config = ServeConfig(coalesce_window=0.01, jobs=1)
        daemon = ServeDaemon(models={"ugr16": model_path}, config=config)
        daemon.start()
        daemon.gate.clear()
        outcome = {}

        def fire():
            try:
                with ServeClient(*daemon.address) as client:
                    outcome["trace"] = client.generate(25, "ugr16")
            except ServeError as exc:
                outcome["error"] = str(exc)

        thread = threading.Thread(target=fire)
        thread.start()
        deadline = time.monotonic() + 5.0
        while daemon.queue.depth == 0:
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        daemon.shutdown(drain=False)
        thread.join(timeout=60)
        assert "error" in outcome
        assert "shut down" in outcome["error"]

    def test_rejects_after_shutdown_begins(self, model_path):
        config = ServeConfig(coalesce_window=0.01, jobs=1)
        daemon = ServeDaemon(models={"ugr16": model_path}, config=config)
        daemon.start()
        daemon.shutdown()
        assert daemon._accepting is False
        response = daemon.handle_request(
            {"op": "generate", "model": "ugr16", "n_records": 5})
        assert response["status"] == "overloaded"


# ----------------------------------------------------------------------
class TestResultCache:
    def _info(self, **overrides):
        info = {"model": "ugr16", "model_generation": 1,
                "derived_seed": 42, "n_records": 10}
        info.update(overrides)
        return info

    def test_hit_is_flagged_and_copied(self):
        cache = ResultCache(capacity=4)
        key = ResultCache.key_for(self._info())
        assert cache.get(key) is None  # cold miss
        cache.put(key, {"status": "ok", "records": [1, 2]})
        hit = cache.get(key)
        assert hit["cached"] is True
        hit["records"].clear()  # shallow copy: top-level key is fresh
        assert cache.get(key)["status"] == "ok"
        assert cache.stats() == {"size": 1, "capacity": 4, "hits": 2,
                                 "misses": 1, "evictions": 0}

    def test_generation_bump_bypasses_stale_entries(self):
        cache = ResultCache(capacity=4)
        cache.put(ResultCache.key_for(self._info()), {"status": "ok"})
        reloaded = ResultCache.key_for(self._info(model_generation=2))
        assert cache.get(reloaded) is None

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        keys = [ResultCache.key_for(self._info(derived_seed=s))
                for s in range(3)]
        for key in keys:
            cache.put(key, {"seed": key[2]})
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[2])["seed"] == 2
        assert cache.stats()["evictions"] == 1

    def test_counters_injected(self):
        hits, misses = [], []

        class Probe:
            def __init__(self, sink):
                self.sink = sink

            def inc(self, n=1):
                self.sink.append(n)

        cache = ResultCache(capacity=2, hit_counter=Probe(hits),
                            miss_counter=Probe(misses))
        key = ResultCache.key_for(self._info())
        cache.get(key)
        cache.put(key, {})
        cache.get(key)
        assert (len(hits), len(misses)) == (1, 1)

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestDaemonCache:
    def test_repeat_request_is_served_from_cache(self, daemon):
        with ServeClient(*daemon.address, client_id="c") as client:
            first = client.generate(25, "ugr16", seed=7)
            meta1 = dict(client.last_response)
            second = client.generate(25, "ugr16", seed=7)
            meta2 = dict(client.last_response)
            different = client.generate(26, "ugr16", seed=7)
            metrics = client.metrics()
        assert meta1.get("cached") is None
        assert meta2.get("cached") is True
        assert len(different) == 26
        for name, column in first._columns().items():
            assert np.array_equal(second._columns()[name], column), name
        counters = metrics["serve"]["counters"]
        assert counters["serve.cache.hits"] == 1.0
        assert counters["serve.cache.misses"] == 2.0
        cache = metrics["cache"]
        assert cache["size"] == 2 and cache["hits"] == 1

    def test_cache_disabled_by_config(self, model_path):
        config = ServeConfig(coalesce_window=0.01, jobs=1,
                             cache_capacity=0)
        daemon = ServeDaemon(models={"ugr16": model_path}, config=config)
        daemon.start()
        try:
            assert daemon.cache is None
            with ServeClient(*daemon.address, client_id="d") as client:
                client.generate(10, "ugr16", seed=1)
                client.generate(10, "ugr16", seed=1)
                meta = dict(client.last_response)
                metrics = client.metrics()
            assert meta.get("cached") is None
            assert metrics["cache"] is None
        finally:
            daemon.shutdown()


# ----------------------------------------------------------------------
class TestAnalysisCoverage:
    def test_serve_package_lints_clean(self):
        """Satellite: the static analyzers (determinism, api-hygiene,
        shm-hygiene, ...) cover repro/serve with zero findings."""
        findings = check_paths(
            [os.path.join(REPO_ROOT, "src", "repro", "serve")])
        assert findings == [], [f.format() for f in findings]
