"""Tests for the zero-copy shared-memory data plane (repro.runtime.shm
and the pool's staging): manifest round-trips, FrozenState caching,
and — the part that matters operationally — the lifetime of every
block the pool stages: kept across calls (after a normal return, a
task exception or a worker death), evicted past the arena's capacity,
and unlinked when the executor closes."""

import multiprocessing
import os
import pathlib
import pickle
import re
from contextlib import contextmanager

import numpy as np
import pytest

from repro import telemetry
from repro.core.flow_encoder import EncodedFlows
from repro.runtime import (
    ArrayRef,
    FrozenState,
    MultiprocessingExecutor,
    SerialExecutor,
    SharedArena,
    block_exists,
    freeze_state,
    pack_tasks,
    thaw_state,
    unpack_task,
)
from repro.runtime.shm import Attachments


@contextmanager
def staged(task):
    """Play the pool's part in-process: pack one task, stage its blob
    table in an arena, and yield the task rebuilt from plain views."""
    (packed,), blobs = pack_tasks([task])
    with SharedArena() as arena, Attachments() as attachments:
        names = {h: arena.share_array(a).name for h, a in blobs.items()}
        yield unpack_task(packed, names, attachments)


class TestArrayRef:
    def test_round_trip(self):
        data = np.arange(24, dtype=np.float64).reshape(4, 6) * 0.5
        with SharedArena() as arena, Attachments() as attachments:
            ref = arena.share_array(data)
            assert isinstance(ref, ArrayRef)
            assert ref.shape == (4, 6)
            assert ref.nbytes == data.nbytes
            view = attachments.array(ref)
            np.testing.assert_array_equal(view, data)
            # The view is a window onto the block, not a copy.
            assert view.base is not None

    def test_bytes_round_trip(self):
        """A frozen state's payload stages as a byte block and comes
        back as a byte view of it."""
        payload = b"frozen-state-blob" * 100
        with staged(FrozenState("blob", payload)) as rebuilt:
            assert bytes(rebuilt.payload) == payload

    def test_empty_bytes_round_trip(self):
        """Blobs read back without the block's padding: an empty blob
        still occupies a 1-byte block."""
        with staged(FrozenState("empty", b"")) as rebuilt:
            assert bytes(rebuilt.payload) == b""

    def test_shared_bytes_matches_staged_refs(self):
        """The arena's byte accounting is the sum of the staged blocks'
        ArrayRef.nbytes, not OS block sizes (floored at 1 byte for
        empty arrays, page-rounded on some platforms)."""
        arrays = [
            np.arange(24, dtype=np.float64).reshape(4, 6),
            np.zeros((0, 7), dtype=np.float32),      # empty: 0 payload bytes
            np.ones(5, dtype=np.int16),
        ]
        payload = b"state-blob" * 33
        with SharedArena() as arena:
            assert arena.shared_bytes == 0
            refs = [arena.share_array(a) for a in arrays]
            refs.append(arena.share_array(
                np.frombuffer(payload, dtype=np.uint8)))
            assert [r.nbytes for r in refs[:3]] == [a.nbytes for a in arrays]
            assert refs[3].nbytes == len(payload)
            assert arena.shared_bytes == sum(r.nbytes for r in refs)
        assert arena.shared_bytes == 0  # everything unlinked on exit

    def test_encoded_flows_round_trip(self):
        rng = np.random.default_rng(0)
        encoded = EncodedFlows(
            metadata=rng.normal(size=(5, 3)),
            measurements=rng.normal(size=(5, 4, 2)),
            gen_flags=rng.uniform(size=(5, 4)),
        )
        with staged(encoded) as view:
            assert isinstance(view, EncodedFlows)
            assert len(view) == 5
            np.testing.assert_array_equal(view.metadata, encoded.metadata)
            np.testing.assert_array_equal(view.measurements,
                                          encoded.measurements)
            np.testing.assert_array_equal(view.gen_flags, encoded.gen_flags)


class TestArenaLifecycle:
    def test_unlink_on_normal_exit(self):
        with SharedArena() as arena:
            ref = arena.share_array(np.ones(16))
            names = arena.block_names
            assert arena.shared_bytes >= 16 * 8
            assert block_exists(ref.name)
        assert names
        for name in names:
            assert not block_exists(name)

    def test_unlink_on_exception(self):
        names = []
        with pytest.raises(RuntimeError, match="task blew up"):
            with SharedArena() as arena:
                names.append(arena.share_array(np.zeros(8)).name)
                raise RuntimeError("task blew up")
        assert names and not block_exists(names[0])

    def test_unlink_on_worker_death(self):
        """A worker dying mid-task (os._exit skips every cleanup path)
        must not leak the block: POSIX shm persists until unlinked, and
        the arena — the owner — unlinks on exit regardless."""
        arena = SharedArena()
        try:
            ref = arena.share_array(np.full(32, 7.0))
            proc = multiprocessing.get_context("fork").Process(
                target=_attach_and_die, args=(ref,))
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 17
            # The crash must not have taken the block with it...
            assert block_exists(ref.name)
        finally:
            arena.close()
        # ...and the owner's cleanup must still unlink it.
        assert not block_exists(ref.name)

    def test_close_is_idempotent(self):
        arena = SharedArena()
        ref = arena.share_array(np.ones(4))
        arena.close()
        arena.close()
        assert not block_exists(ref.name)

    def test_finalizer_backstop(self):
        """Arenas abandoned without a with-block still unlink on gc."""
        # Deliberately unmanaged: this test IS the weakref.finalize
        # backstop's regression test.
        arena = SharedArena()  # repro: ignore[shm-hygiene]
        name = arena.share_array(np.ones(4)).name
        assert block_exists(name)
        del arena
        import gc
        gc.collect()
        assert not block_exists(name)


def _attach_and_die(ref):
    view = Attachments().array(ref)
    assert float(view[0]) == 7.0
    os._exit(17)   # simulated crash: no atexit, no finalizers, no GC


class TestFrozenState:
    def test_freeze_thaw_round_trip(self):
        state = {"w": np.arange(6.0).reshape(2, 3), "nested": {"b": 3}}
        frozen = freeze_state(state)
        assert isinstance(frozen, FrozenState)
        thawed = thaw_state(frozen)
        np.testing.assert_array_equal(thawed["w"], state["w"])
        assert thawed["nested"] == {"b": 3}
        # Each thaw decodes afresh and keeps nothing: equal arrays in a
        # distinct dict.
        again = thaw_state(frozen)
        assert again is not thawed
        np.testing.assert_array_equal(again["w"], thawed["w"])
        assert again["w"] is not thawed["w"]

    def test_identical_states_freeze_once(self):
        state = {"w": np.ones(5)}
        a = freeze_state({"w": np.ones(5)})
        b = freeze_state({"w": np.ones(5)})
        assert a.content_hash == b.content_hash
        assert freeze_state(state).content_hash == a.content_hash

    def test_freeze_passthrough(self):
        assert freeze_state(None) is None
        frozen = freeze_state({"w": np.zeros(2)})
        assert freeze_state(frozen) is frozen
        plain = {"w": np.zeros(2)}
        assert thaw_state(plain) is plain
        assert thaw_state(None) is None

    def test_frozen_state_via_arena(self):
        """A staged frozen state keeps its hash and its payload is a
        byte view of its block (read directly: a thaw-cache hit would
        not read it at all)."""
        state = {"w": np.linspace(0, 1, 7)}
        frozen = freeze_state(state)
        with staged(frozen) as rebuilt:
            assert isinstance(rebuilt.payload, np.ndarray)
            assert rebuilt.content_hash == frozen.content_hash
            thawed = pickle.loads(rebuilt.payload)
            np.testing.assert_array_equal(thawed["w"], state["w"])


# ----------------------------------------------------------------------
# Staging in the process pool: callers hand over plain tasks, the pool
# stages their payloads in the arena it keeps for its lifetime.

def _total(task):
    encoded = task["encoded"]
    return float(task["rows"].sum() + encoded.metadata.sum()
                 + thaw_state(task["state"])["w"].sum())


def _fail(task):
    raise ValueError(f"task failed on {task['rows'].shape}")


def _exit_mid_task(task):
    os._exit(3)


def _tasks(n, shared=()):
    """``n`` tasks with their own rows; encoded tensors and frozen state
    are per task too unless named in ``shared``."""
    rng = np.random.default_rng(n)

    def encoded():
        return EncodedFlows(metadata=rng.normal(size=(3, 2)),
                            measurements=rng.normal(size=(3, 2, 2)),
                            gen_flags=rng.uniform(size=(3, 2)))

    def state():
        return freeze_state({"w": rng.normal(size=4)})

    one = {"encoded": encoded(), "state": state()}
    return [{"rows": rng.normal(size=(4, 3)),
             "encoded": one["encoded"] if "encoded" in shared else encoded(),
             "state": one["state"] if "state" in shared else state()}
            for _ in range(n)]


@pytest.fixture
def staged_names(monkeypatch):
    """Names of every block an arena stages while the test runs."""
    names = []
    share_array = SharedArena.share_array

    def spy(self, array):
        ref = share_array(self, array)
        names.append(ref.name)
        return ref

    monkeypatch.setattr(SharedArena, "share_array", spy)
    return names


class TestPoolLifetimeArena:
    """A pool's blocks live as long as its executor: a later call reuses
    them, and close() unlinks them all."""

    def test_blocks_outlive_a_returned_call(self, staged_names):
        tasks = _tasks(4)
        with MultiprocessingExecutor(2) as pool:
            assert pool.map_tasks(_total, tasks) == [_total(t) for t in tasks]
            assert staged_names
            assert all(block_exists(name) for name in staged_names)
        assert not any(block_exists(name) for name in staged_names)

    def test_blocks_outlive_a_raising_call(self, staged_names):
        with MultiprocessingExecutor(2) as pool:
            with pytest.raises(ValueError, match="task failed"):
                pool.map_tasks(_fail, _tasks(3))
            assert staged_names
            assert all(block_exists(name) for name in staged_names)
        assert not any(block_exists(name) for name in staged_names)

    def test_blocks_outlive_a_worker_exiting_mid_task(self, staged_names):
        with MultiprocessingExecutor(2) as pool:
            with pytest.raises(RuntimeError, match="worker died"):
                pool.map_tasks(_exit_mid_task, _tasks(2))
            assert staged_names
            assert all(block_exists(name) for name in staged_names)
        assert not any(block_exists(name) for name in staged_names)

    def test_serial_and_single_task_calls_stage_nothing(self, staged_names):
        tasks = _tasks(2)
        assert SerialExecutor().map_tasks(_total, tasks) == \
            [_total(t) for t in tasks]
        with MultiprocessingExecutor(2) as pool:
            assert pool.map_tasks(_total, tasks[:1]) == [_total(tasks[0])]
        assert staged_names == []

    @pytest.mark.parametrize("shared", ["state", "encoded"])
    def test_shared_payload_staged_once_per_pool(self, shared, tmp_path,
                                                 monkeypatch):
        """A FrozenState or EncodedFlows shared by N tasks is staged
        once, per-task rows and payloads once per task, and a second
        call on the same tasks stages nothing."""
        # Pin pooled placement: the second call's tasks are cheap
        # enough that the pool would run it in-process, unstaged.
        monkeypatch.setattr("repro.runtime.executor.INLINE_MULTIPLE", 0.0)
        n = 5
        tasks = _tasks(n, shared=(shared,))
        per_call = n + (3 if shared == "encoded" else 3 * n) + \
            (1 if shared == "state" else n)
        with telemetry.session(journal_dir=tmp_path / "runs"):
            with MultiprocessingExecutor(2) as pool:
                pool.map_tasks(_total, tasks)
                pool.map_tasks(_total, tasks)
            staged_blocks = telemetry.metrics().snapshot()["counters"][
                "shm.blocks_staged"]
        assert staged_blocks == per_call

    def test_capacity_below_one_call(self, staged_names, monkeypatch):
        """An arena smaller than one call's blob table keeps the whole
        table for that call, which runs bit-identically; a later call
        evicts it, and a call on evicted blobs stages them again."""
        monkeypatch.setattr("repro.runtime.executor.INLINE_MULTIPLE", 0.0)
        monkeypatch.setattr("repro.runtime.shm.DEFAULT_BLOB_CAPACITY", 2)
        first, second = _tasks(3), _tasks(4)
        serial = SerialExecutor()
        with MultiprocessingExecutor(2) as pool:
            assert pool.map_tasks(_total, first) == \
                serial.map_tasks(_total, first)
            # Rows, three encoded tensors and a state per task.
            first_names = list(staged_names)
            assert len(first_names) == 5 * len(first)
            assert all(block_exists(name) for name in first_names)
            assert pool.map_tasks(_total, second) == \
                serial.map_tasks(_total, second)
            second_names = staged_names[len(first_names):]
            assert len(second_names) == 5 * len(second)
            assert not any(block_exists(name) for name in first_names)
            assert all(block_exists(name) for name in second_names)
            assert pool.map_tasks(_total, first) == \
                serial.map_tasks(_total, first)
            assert len(staged_names) == 5 * (2 * len(first) + len(second))


def test_only_the_runtime_stages():
    """Callers build plain tasks: no module outside repro.runtime
    imports the shared-memory layer or constructs an arena."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = [
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if "runtime" not in path.relative_to(src).parts[:1]
        and "analysis" not in path.relative_to(src).parts[:1]
        and re.search(r"runtime\.shm|SharedArena\(", path.read_text())
    ]
    assert offenders == []
