"""Tests for repro.nn.tape: eager-vs-taped bitwise parity across every
registered op and every compiled model family, shape-signature cache
invalidation, liveness-planner release correctness, and nesting.

The parity harness replays each op program the double-backprop checker
registers (``repro.analysis.graph_check``): forward, a scalar loss,
and the backward pass run as one compiled step over several steps with
in-place-updated inputs, once eager and once taped, and every per-step
array must match bit for bit.
"""

import numpy as np
import pytest

from repro.analysis import get_op_spec, registered_op_names
from repro.baselines import EWganGp, Stan
from repro.core.flow_encoder import EncodedFlows
from repro.datasets import load_dataset
from repro.gan.doppelganger import DgConfig, DoppelGANger
from repro.nn import SGD, Dense, Tensor, grad, tensor
from repro.nn.functional import gumbel_softmax
from repro.nn.tape import (
    RECORDER,
    Tape,
    compiled_step,
    configure,
    fresh_full,
    invalidate_tapes,
    k_gather,
    ka,
    reset_tape_stats,
    scratch,
    tape_enabled,
    tape_stats,
    taped_draw,
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
# Per-op parity
# ----------------------------------------------------------------------

def _apply_for(spec, run_rng):
    # The registry's gumbel spec builds a fresh internal generator per
    # apply (the double-backprop harness needs identical draws across
    # calls).  Parity wants the *training* shape instead: one persistent
    # generator per run whose stream both the eager and the taped run
    # consume in the same order (taped_draw re-draws on replay).
    if spec.name == "gumbel_softmax":
        return lambda xs: gumbel_softmax(xs[0], temperature=0.7, rng=run_rng)
    return spec.apply


def _run_op_program(spec, steps=3):
    """Forward + loss + backward of one op as a compiled step; returns
    the per-step [out, loss, *grads] arrays."""
    base = [np.asarray(a, dtype=np.float64) for a in spec.make_inputs()]
    bufs = [a.copy() for a in base]
    run_rng = np.random.default_rng(20260807)
    apply = _apply_for(spec, run_rng)

    def core():
        leaves = [Tensor(b, requires_grad=True) for b in bufs]
        out = apply(leaves)
        loss = (out * out).sum()
        grads = grad(loss, leaves)
        return [out, loss] + list(grads)

    step = compiled_step(core, f"test.{spec.name}", extract="array")
    key = (spec.name,) + tuple(b.shape for b in bufs)
    results = []
    for s in range(steps):
        # Mutate the leaf buffers in place between steps: a replayed
        # tape must read the live values, not the recorded ones.
        for buf, a in zip(bufs, base):
            np.copyto(buf, a * (1.0 + 0.25 * s))
        results.append(step.run(key))
    return results


@pytest.mark.parametrize("name", registered_op_names())
def test_op_parity_eager_vs_taped(name):
    spec = get_op_spec(name)
    configure(False)
    eager = _run_op_program(spec)
    configure(True)
    before = tape_stats()
    taped = _run_op_program(spec)
    after = tape_stats()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 2  # steps 2 and 3 replayed
    assert len(eager) == len(taped)
    for step_e, step_t in zip(eager, taped):
        assert len(step_e) == len(step_t)
        for a, b in zip(step_e, step_t):
            assert _bitwise_equal(a, b), name


# ----------------------------------------------------------------------
# Cache keys and invalidation
# ----------------------------------------------------------------------

def _training_run(seed, schedule, taped):
    """A tiny Dense regression fit; returns (losses, final weights)."""
    configure(taped)
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(32, 4))
    target = rng.uniform(size=(32, 3))
    net = Dense(4, 3, "tanh", rng=np.random.default_rng(seed + 1))
    opt = SGD(net.parameters(), lr=0.1)
    draw_rng = np.random.default_rng(seed + 2)

    def core(b):
        idx = taped_draw(lambda: draw_rng.integers(0, len(data), size=b))
        x = tensor(k_gather(data, idx))
        y = tensor(k_gather(target, idx))
        loss = (net(x) - y).square().mean()
        opt.step(grad(loss, net.parameters()))
        return loss

    step = compiled_step(core, "test.train")
    losses = [step.run((b,), b) for b in schedule]
    return losses, net.state_dict(), step


def test_batch_size_change_records_fresh_tape():
    schedule = [4, 4, 4, 8, 8, 4]
    eager_losses, eager_state, _ = _training_run(3, schedule, taped=False)
    reset_tape_stats()
    taped_losses, taped_state, step = _training_run(3, schedule, taped=True)
    stats = tape_stats()
    # b=4 and b=8 each record once; the other four steps replay (the
    # final b=4 hits the still-cached first tape).
    assert stats["misses"] == 2
    assert stats["hits"] == 4
    assert len(step._tapes) == 2
    assert taped_losses == eager_losses
    for name in eager_state:
        assert _bitwise_equal(eager_state[name], taped_state[name])


def test_load_state_dict_invalidates_tapes():
    configure(True)
    rng = np.random.default_rng(0)
    data = rng.uniform(size=(16, 4))
    net = Dense(4, 2, "tanh", rng=np.random.default_rng(1))
    opt = SGD(net.parameters(), lr=0.05)

    def core():
        loss = net(tensor(data)).square().mean()
        opt.step(grad(loss, net.parameters()))
        return loss

    step = compiled_step(core, "test.invalidate")
    step.run(("k",))
    step.run(("k",))
    before = tape_stats()
    assert before["misses"] == 1 and before["hits"] == 1
    # Reloading weights reassigns p.data: the recorded tape holds the
    # old storage by reference, so the generation bump must force a
    # re-record instead of replaying into orphaned arrays.
    net.load_state_dict({k: v * 0.5 for k, v in net.state_dict().items()})
    loss_after = step.run(("k",))
    after = tape_stats()
    assert after["misses"] == 2
    configure(False)
    expected = float(net(tensor(data)).square().mean().data)
    # The re-recorded step trained one more step from the reloaded
    # weights; recompute its loss eagerly from the pre-step weights.
    # (Cheap sanity bound: the taped loss is a real finite number read
    # from the fresh storage.)
    assert np.isfinite(loss_after) and loss_after != pytest.approx(0.0)
    assert np.isfinite(expected)


def test_manual_invalidate_forces_rerecord():
    configure(True)
    buf = np.ones(8)

    def core():
        return Tensor(ka(np.multiply, buf, 2.0)).sum()

    step = compiled_step(core, "test.manual")
    step.run(("k",))
    step.run(("k",))
    assert tape_stats()["hits"] == 1
    invalidate_tapes()
    step.run(("k",))
    assert tape_stats()["misses"] == 2


def test_tape_cache_evicts_least_recently_used():
    """A replay moves its key to the back of the cache, so a fifth
    signature evicts the tape that went longest without a replay."""
    buf = np.ones(8)

    def core(scale):
        return Tensor(ka(np.multiply, buf, scale)).sum()

    step = compiled_step(core, "test.lru")
    for k in range(1, 5):
        step.run((k,), float(k))
    step.run((1,), 1.0)   # replay: (1,) becomes the most recent
    step.run((5,), 5.0)   # evicts (2,), the least recently used
    assert list(step._tapes) == [(3,), (4,), (1,), (5,)]
    assert step.run((1,), 1.0) == 8.0
    stats = tape_stats()
    assert stats["misses"] == 5 and stats["hits"] == 2


# ----------------------------------------------------------------------
# Liveness planner
# ----------------------------------------------------------------------

def test_liveness_releases_dead_intermediates():
    x = np.arange(8.0)
    RECORDER.begin()
    try:
        t1 = ka(np.multiply, x, 2.0)
        t2 = ka(np.add, t1, 1.0)      # t1 dies here
        t3 = ka(np.multiply, t2, 3.0)  # t2 dies; t3 can reuse t1's storage
        out = ka(np.add, t3, 0.5)
    finally:
        entries = RECORDER.end()
    tape = Tape(entries, RECORDER.owned, [out], scalar=False)
    # Four recorded intermediates, but disjoint lifetimes share
    # storage: planned peak must drop below recorded bytes.
    assert tape.bytes_planned < tape.bytes_recorded
    # Replay with fresh input values: results must follow the live
    # buffer, and the reused storage must not corrupt the chain.
    np.copyto(x, np.arange(8.0)[::-1])
    tape.replay()
    expected = ((x * 2.0) + 1.0) * 3.0 + 0.5
    assert _bitwise_equal(out, expected)


def test_liveness_pins_outputs_and_rng_buffers():
    rng = np.random.default_rng(5)
    RECORDER.begin()
    try:
        noise = taped_draw(lambda: rng.uniform(size=(8,)))
        t1 = ka(np.multiply, noise, 2.0)
        out = ka(np.add, t1, 1.0)
    finally:
        entries = RECORDER.end()
    tape = Tape(entries, RECORDER.owned, [out], scalar=False)
    tape.replay()
    # The rng entry refreshed `noise` from the live generator and the
    # downstream kernels consumed the fresh draw.
    assert _bitwise_equal(out, noise * 2.0 + 1.0)


# ----------------------------------------------------------------------
# Nesting and the escape hatch
# ----------------------------------------------------------------------

def test_compiled_step_nested_in_recording_falls_back_to_eager():
    configure(True)
    w = np.full(4, 0.5)
    data = np.arange(4.0)

    def inner_core():
        loss = (Tensor(w, requires_grad=False) * Tensor(data)).sum()
        # In-place parameter nudge through the tape shims.
        step_arr = ka(np.multiply, data, 0.01)
        np.subtract(w, step_arr, out=w)  # repro: ignore[tape-purity]
        if RECORDER.active:
            RECORDER.k(np.subtract, (w, step_arr), w)
        return loss

    inner = compiled_step(inner_core, "test.inner")

    def outer_core():
        inner.run(("inner",))  # recorder active -> eager fallback
        return Tensor(ka(np.multiply, w, 1.0)).sum()

    outer = compiled_step(outer_core, "test.outer")
    first = outer.run(("outer",))
    stats = tape_stats()
    # The inner step never recorded its own tape: its kernels belong
    # to the outer recording.
    assert stats["misses"] == 1 and stats["hits"] == 0
    second = outer.run(("outer",))
    assert tape_stats()["hits"] == 1
    # Each step subtracts 0.01 * data from w; the outer replay must
    # re-run the inner kernels too (same kernel order as the eager
    # updates, so the comparison is exact).
    step_arr = data * 0.01
    w1 = np.full(4, 0.5) - step_arr
    w2 = w1 - step_arr
    assert _bitwise_equal(w, w2)
    assert first == float(np.sum(w1 * 1.0))
    assert second == float(np.sum(w2 * 1.0))


def test_env_escape_hatch_disables_tapes(monkeypatch):
    configure(None)  # fall back to the environment variable
    monkeypatch.setenv("REPRO_NN_TAPE", "0")
    assert not tape_enabled()

    calls = []

    def core():
        calls.append(1)
        return Tensor(np.ones(3)).sum()

    step = compiled_step(core, "test.env")
    step.run(("k",))
    step.run(("k",))
    stats = tape_stats()
    assert stats["misses"] == 0 and stats["hits"] == 0
    assert len(calls) == 2  # eager body ran every step
    monkeypatch.setenv("REPRO_NN_TAPE", "1")
    assert tape_enabled()


# ----------------------------------------------------------------------
# Fresh and scratch buffers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value", [0.0, 1.0, 2.5])
def test_fresh_buffer_refills_on_every_replay(value):
    """An accumulator from ``fresh_full`` is re-filled before each
    replay, so an in-place scatter never sees the last step's sums."""
    idx = np.array([0, 2, 2])

    def core():
        acc = fresh_full((3,), value)
        np.add.at(acc, idx, 1.0)  # repro: ignore[tape-purity]
        if RECORDER.active:
            RECORDER.inplace(np.add.at, (acc, idx, 1.0))
        return Tensor(ka(np.multiply, acc, 1.0)).sum()

    step = compiled_step(core, "test.fresh")
    results = [step.run(("k",)) for _ in range(3)]
    assert tape_stats()["hits"] == 2
    assert results == [3 * value + 3.0] * 3


def test_scratch_belongs_to_the_open_recording():
    outside = scratch((2, 2))
    assert id(outside) not in RECORDER.owned
    RECORDER.begin()
    try:
        inside = scratch((2, 2))
        assert RECORDER.owned[id(inside)] is inside
    finally:
        RECORDER.end()


# ----------------------------------------------------------------------
# Model families: a taped fit and sample against REPRO_NN_TAPE=0
# ----------------------------------------------------------------------

def _both_modes(run):
    """``run()`` once eager (the oracle), once taped."""
    configure(False)
    eager = run()
    configure(True)
    return eager, run()


def _small_flows(n):
    rng = np.random.default_rng(0)
    return EncodedFlows(rng.uniform(size=(n, 6)),
                        rng.uniform(size=(n, 4, 3)), np.ones((n, 4)))


def _small_dg_config(batch_size):
    return DgConfig(metadata_dim=6, measurement_dim=3, max_timesteps=4,
                    batch_size=batch_size, meta_hidden=16, rnn_hidden=16,
                    disc_hidden=16)


def _assert_dg_runs_equal(eager, taped):
    (d_e, g_e, state_e, gen_e), (d_t, g_t, state_t, gen_t) = eager, taped
    assert d_e == d_t and g_e == g_t
    for key in state_e:
        assert _bitwise_equal(state_e[key], state_t[key])
    for field in ("metadata", "measurements", "gen_flags"):
        assert _bitwise_equal(getattr(gen_e, field), getattr(gen_t, field))


class TestModelParity:
    def test_doppelganger_losses_params_samples(self):
        flows, config = _small_flows(48), _small_dg_config(16)

        def run():
            model = DoppelGANger(config, seed=1)
            model.fit(flows, epochs=2)
            return (list(model.log.d_loss), list(model.log.g_loss),
                    model.state_dict(), model.generate(20, seed=3))

        _assert_dg_runs_equal(*_both_modes(run))

    def test_doppelganger_dp_fit_parity(self):
        """DP-SGD fit (batched per-example critic pass, clipping and
        noise) then sampling from the private model."""
        from repro.privacy import DpSgdConfig

        flows, config = _small_flows(16), _small_dg_config(8)
        dp_config = DpSgdConfig(clip_norm=1.0, noise_multiplier=0.5)

        def run():
            model = DoppelGANger(config, seed=1)
            log = model.fit_dp(flows, epochs=1, dp_config=dp_config, seed=5)
            return (list(log.d_loss), list(log.g_loss),
                    model.state_dict(), model.generate(20, seed=3))

        _assert_dg_runs_equal(*_both_modes(run))

    def test_ewgangp_samples_parity(self):
        trace = load_dataset("ugr16", n_records=120, seed=0)
        eager, taped = _both_modes(
            lambda: EWganGp(epochs=2, seed=0).fit(trace).generate(60, seed=1))
        for column in ("src_ip", "dst_port", "bytes"):
            assert _bitwise_equal(getattr(eager, column),
                                  getattr(taped, column))

    @pytest.mark.parametrize("name, dataset", [
        ("CTGAN", "ugr16"), ("PAC-GAN", "caida"), ("PacketCGAN", "caida"),
        ("Flow-WGAN", "caida")])
    def test_rowgan_family_samples_parity(self, name, dataset):
        from repro.baselines import make_baseline

        trace = load_dataset(dataset, n_records=120, seed=0)
        eager, taped = _both_modes(
            lambda: make_baseline(name, epochs=2, seed=0).fit(trace)
            .generate(60, seed=1))
        for column in ("src_ip", "dst_port", "protocol"):
            assert _bitwise_equal(getattr(eager, column),
                                  getattr(taped, column))

    def test_stan_samples_parity(self):
        trace = load_dataset("ugr16", n_records=120, seed=0)
        eager, taped = _both_modes(
            lambda: Stan(epochs=5, seed=0).fit(trace).generate(80, seed=1))
        for column in ("src_ip", "bytes", "start_time"):
            assert _bitwise_equal(getattr(eager, column),
                                  getattr(taped, column))
