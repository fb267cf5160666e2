"""Tests for compiled forward-only inference (``repro.nn.tape``'s
``compiled_infer`` / ``bucket_size`` / ``LiveRng``) and its call sites.

The acceptance bar is the same bitwise one the training tape carries:
``generate()`` with tapes on (record, then warm replay) must produce
byte-identical output to the eager oracle (``configure(False)``), for
every model family that samples through a compiled tape — DoppelGANger,
the RowGAN family (plain and conditional), and STAN's autoregressive
chain.  On top of parity: bucketing arithmetic, the infer hit/miss
ledger (process counters and telemetry mirrors), and tape invalidation
on ``load_state_dict``.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.baselines.rowgan import ColumnSpec, RowGan, RowGanConfig
from repro.baselines.stan import Stan
from repro.datasets.records import FlowTrace
from repro.gan.doppelganger import DgConfig, DoppelGANger
from repro.nn.tape import (
    bucket_size,
    configure,
    reset_tape_stats,
    tape_stats,
)


@pytest.fixture(autouse=True)
def clean_tape_state():
    """Each test runs with tapes on and fresh counters."""
    configure(True)
    reset_tape_stats()
    yield
    configure(None)
    reset_tape_stats()


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


# ----------------------------------------------------------------------
# bucket_size
# ----------------------------------------------------------------------

class TestBucketSize:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16), (100, 128),
        (200, 256), (256, 256), (257, 512), (300, 512), (513, 768),
        (600, 768), (769, 1024),
    ])
    def test_values(self, n, expected):
        assert bucket_size(n) == expected

    def test_buckets_are_fixed_points(self):
        # Pre-bucketed task sizes (NetShare.generate buckets n_flows
        # before dispatch) must pass through the model's own padding
        # unchanged, or every task would pad twice.
        for n in (1, 7, 64, 255, 256, 300, 1000, 4096):
            b = bucket_size(n)
            assert bucket_size(b) == b

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bucket_size(0)


# ----------------------------------------------------------------------
# DoppelGANger generate parity
# ----------------------------------------------------------------------

def _tiny_dg():
    config = DgConfig(metadata_dim=6, measurement_dim=3, max_timesteps=4,
                      noise_dim=5, meta_hidden=8, rnn_hidden=8,
                      disc_hidden=8, batch_size=8)
    return DoppelGANger(config, seed=11)


class TestDoppelGANgerInfer:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [5, 8, 9])
    def test_generate_matches_eager(self, seed, n):
        # n spans a bucket boundary: 5 and 8 share the 8-bucket (and a
        # tape), 9 rounds up to 16.
        model = _tiny_dg()
        configure(False)
        eager = model.generate(n, seed=seed)
        configure(True)
        recorded = model.generate(n, seed=seed)   # records the tape
        replayed = model.generate(n, seed=seed)   # warm replay
        for got in (recorded, replayed):
            assert _bitwise_equal(got.metadata, eager.metadata)
            assert _bitwise_equal(got.measurements, eager.measurements)
            assert _bitwise_equal(got.gen_flags, eager.gen_flags)

    def test_bucket_sharing_and_stats(self):
        model = _tiny_dg()
        model.generate(5, seed=0)   # records the 8-bucket tape
        model.generate(8, seed=1)   # same bucket: replay
        model.generate(7, seed=2)   # same bucket: replay
        model.generate(9, seed=3)   # 16-bucket: new recording
        stats = tape_stats()
        assert stats["infer_misses"] == 2
        assert stats["infer_hits"] == 2

    def test_gen_flags_have_active_prefix(self):
        # The vectorized flag pass must keep the loop's invariants:
        # 0/1 values, at least one active step, contiguous prefix.
        flows = _tiny_dg().generate(32, seed=5)
        flags = flows.gen_flags
        assert set(np.unique(flags)) <= {0.0, 1.0}
        assert (flags[:, 0] == 1.0).all()
        # once a row switches off it stays off
        assert (np.diff(flags, axis=1) <= 0).all()

    def test_load_state_dict_invalidates_infer_tapes(self):
        model = _tiny_dg()
        model.generate(6, seed=0)
        assert tape_stats()["infer_misses"] == 1
        model.load_state_dict(model.state_dict())
        out = model.generate(6, seed=0)
        assert tape_stats()["infer_misses"] == 2  # re-recorded
        # identical weights -> identical output even across re-record
        configure(False)
        assert _bitwise_equal(out.metadata,
                              model.generate(6, seed=0).metadata)

    def test_telemetry_counters(self, tmp_path):
        model = _tiny_dg()
        with telemetry.session(journal_dir=tmp_path, run_id="infer"):
            model.generate(5, seed=0)
            model.generate(5, seed=1)
            registry = telemetry.metrics()
            assert registry.counter("nn.tape.infer.misses").value == 1.0
            assert registry.counter("nn.tape.infer.hits").value == 1.0


# ----------------------------------------------------------------------
# RowGAN family parity (plain and conditional)
# ----------------------------------------------------------------------

_COLUMNS = [
    ColumnSpec("scale", 3, "unit"),
    ColumnSpec("proto", 4, "onehot"),
    ColumnSpec("embed", 2, "free"),
]


class TestRowGanInfer:
    @pytest.mark.parametrize("n", [5, 8, 9])
    def test_plain_generate_matches_eager(self, n):
        model = RowGan(_COLUMNS, RowGanConfig(noise_dim=6, hidden=8,
                                              disc_hidden=8), seed=3)
        configure(False)
        eager = model.generate(n, seed=21)
        configure(True)
        assert _bitwise_equal(model.generate(n, seed=21), eager)
        assert _bitwise_equal(model.generate(n, seed=21), eager)

    def test_conditional_inputs_refresh_on_replay(self):
        model = RowGan(
            _COLUMNS,
            RowGanConfig(noise_dim=6, hidden=8, disc_hidden=8,
                         condition_dim=2), seed=3)
        rng = np.random.default_rng(0)
        cond_a = rng.uniform(size=(5, 2))
        cond_b = rng.uniform(size=(5, 2))

        configure(False)
        eager_a = model.generate(5, seed=9, conditions=cond_a)
        eager_b = model.generate(5, seed=9, conditions=cond_b)
        assert not _bitwise_equal(eager_a, eager_b)

        configure(True)
        assert _bitwise_equal(
            model.generate(5, seed=9, conditions=cond_a), eager_a)
        # second call replays the warm tape with a *different* bound
        # condition buffer: np.copyto must carry the new rows in
        assert _bitwise_equal(
            model.generate(5, seed=9, conditions=cond_b), eager_b)
        stats = tape_stats()
        assert stats["infer_misses"] == 1
        assert stats["infer_hits"] == 1


# ----------------------------------------------------------------------
# STAN autoregressive sampler parity
# ----------------------------------------------------------------------

def _tiny_trace(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return FlowTrace(
        src_ip=rng.integers(1, 4, size=n).astype(np.uint32),
        dst_ip=rng.integers(10, 20, size=n).astype(np.uint32),
        src_port=rng.integers(1024, 65535, size=n),
        dst_port=rng.integers(1, 1024, size=n),
        protocol=rng.choice([6, 17], size=n),
        start_time=np.sort(rng.uniform(0, 1e4, size=n)),
        duration=rng.uniform(0, 500, size=n),
        packets=rng.integers(1, 100, size=n),
        bytes=rng.integers(40, 4000, size=n),
    )


class TestStanInfer:
    def test_generate_matches_eager(self):
        model = Stan(epochs=2, hidden=8, seed=1).fit(_tiny_trace())
        configure(False)
        eager = model.generate(12, seed=5)
        configure(True)
        taped = model.generate(12, seed=5)
        for field in ("src_ip", "dst_ip", "src_port", "dst_port",
                      "protocol", "start_time", "duration", "packets",
                      "bytes"):
            assert _bitwise_equal(getattr(taped, field),
                                  getattr(eager, field)), field
        # five per-field nets record once each; every later step of the
        # chain replays
        stats = tape_stats()
        assert stats["infer_misses"] == 5
        assert stats["infer_hits"] >= 5

    def test_refit_drops_stale_tapes(self):
        model = Stan(epochs=2, hidden=8, seed=1).fit(_tiny_trace())
        model.generate(6, seed=5)
        assert len(model._infer) == 5
        model.fit(_tiny_trace(seed=3))
        assert model._infer == {}  # new nets, no stale tapes
        configure(False)
        eager = model.generate(6, seed=5)
        configure(True)
        assert _bitwise_equal(model.generate(6, seed=5).start_time,
                              eager.start_time)
