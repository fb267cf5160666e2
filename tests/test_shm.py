"""Tests for the zero-copy shared-memory data plane (repro.runtime.shm):
manifest round-trips, FrozenState caching, and — the part that matters
operationally — the arena's guaranteed-unlink lifecycle on normal exit,
on task exceptions, and on worker death."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.flow_encoder import EncodedFlows
from repro.runtime import (
    ArrayRef,
    FrozenState,
    MultiprocessingExecutor,
    SerialExecutor,
    SharedArena,
    attach_array,
    block_exists,
    freeze_state,
    maybe_arena,
    read_shared_bytes,
    thaw_state,
)


class TestArrayRef:
    def test_round_trip(self):
        data = np.arange(24, dtype=np.float64).reshape(4, 6) * 0.5
        with SharedArena() as arena:
            ref = arena.share_array(data)
            assert isinstance(ref, ArrayRef)
            assert ref.shape == (4, 6)
            assert ref.nbytes == data.nbytes
            view = attach_array(ref)
            np.testing.assert_array_equal(view, data)
            # The view is a window onto the block, not a copy.
            assert view.base is not None

    def test_bytes_round_trip(self):
        payload = b"frozen-state-blob" * 100
        with SharedArena() as arena:
            ref = arena.share_bytes(payload)
            assert read_shared_bytes(ref) == payload

    def test_empty_bytes_round_trip(self):
        """Blobs read back without the block's padding: an empty blob
        still occupies a 1-byte block."""
        with SharedArena() as arena:
            assert read_shared_bytes(arena.share_bytes(b"")) == b""

    def test_shared_bytes_matches_staged_refs(self):
        """The arena's byte accounting is the sum of the staged blocks'
        ArrayRef.nbytes — the number BENCH_runtime.json's dispatch-byte
        metric divides by — not OS block sizes (floored at 1 byte for
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
            refs.append(arena.share_bytes(payload))
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
        with SharedArena() as arena:
            shared = arena.share_encoded(encoded)
            assert len(shared) == 5
            view = shared.materialize()
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
    view = attach_array(ref)
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

    def test_identical_states_freeze_once(self):
        state = {"w": np.ones(5)}
        a = freeze_state({"w": np.ones(5)})
        b = freeze_state({"w": np.ones(5)})
        assert a is b                      # content-hash cache hit
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
        state = {"w": np.linspace(0, 1, 7)}
        with SharedArena() as arena:
            frozen = freeze_state(state, arena)
            assert isinstance(frozen.payload, ArrayRef)
            thawed = thaw_state(frozen)
            np.testing.assert_array_equal(thawed["w"], state["w"])


class TestMaybeArena:
    def test_shm_executor_gets_arena(self):
        """The process pool always stages: it is the shm executor."""
        with maybe_arena(MultiprocessingExecutor(2)) as arena:
            assert isinstance(arena, SharedArena)
            name = arena.share_array(np.ones(2)).name
        assert not block_exists(name)

    def test_other_backends_get_none(self):
        with maybe_arena(SerialExecutor()) as arena:
            assert arena is None
