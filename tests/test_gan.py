"""Tests for the DoppelGANger time-series GAN."""

import numpy as np
import pytest

from repro.core.flow_encoder import EncodedFlows, FlowTensorEncoder
from repro.core.preprocess import split_into_flows, time_range
from repro.datasets import load_dataset
from repro.gan import DgConfig, DoppelGANger
from repro.privacy import DpSgdConfig


@pytest.fixture(scope="module")
def encoded():
    trace = load_dataset("ugr16", n_records=250, seed=0)
    encoder = FlowTensorEncoder("netflow", max_timesteps=6,
                                port_encoding="bit").fit(trace)
    flows = split_into_flows(trace)
    return encoder.encode_chunk(flows, time_range(trace)), encoder


def make_config(encoder, **kwargs):
    defaults = dict(
        metadata_dim=encoder.metadata_width,
        measurement_dim=encoder.measurement_width,
        max_timesteps=6, batch_size=32,
        meta_hidden=24, rnn_hidden=24, disc_hidden=32, noise_dim=8,
    )
    defaults.update(kwargs)
    return DgConfig(**defaults)


class TestConfig:
    def test_requires_dims(self):
        with pytest.raises(ValueError):
            DgConfig()

    def test_bad_timesteps(self):
        with pytest.raises(ValueError):
            DgConfig(metadata_dim=4, measurement_dim=2, max_timesteps=0)

    def test_bad_n_critic(self):
        with pytest.raises(ValueError):
            DgConfig(metadata_dim=4, measurement_dim=2, n_critic=0)

    def test_segments_must_sum_to_metadata_dim(self):
        with pytest.raises(ValueError):
            DgConfig(metadata_dim=10, measurement_dim=2,
                     metadata_segments=[("sigmoid", 4)])

    def test_unknown_segment_kind(self):
        with pytest.raises(ValueError):
            DgConfig(metadata_dim=4, measurement_dim=2,
                     metadata_segments=[("softmax", 4)])

    def test_anchor_segment_width_from_matrix(self):
        anchors = np.zeros((5, 4))
        config = DgConfig(metadata_dim=4, measurement_dim=2,
                          metadata_segments=[("anchor", anchors)])
        assert config.metadata_dim == 4


class TestTraining:
    def test_fit_runs_and_logs(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        log = gan.fit(data, epochs=2)
        assert len(log.d_loss) == 2
        assert len(log.g_loss) == 2
        assert log.wall_seconds > 0
        assert log.steps > 0

    def test_fit_validates_shapes(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        bad = EncodedFlows(
            metadata=data.metadata[:, :-1],
            measurements=data.measurements,
            gen_flags=data.gen_flags,
        )
        with pytest.raises(ValueError):
            gan.fit(bad, epochs=1)

    def test_fit_rejects_zero_epochs(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        with pytest.raises(ValueError):
            gan.fit(data, epochs=0)

    def test_fine_tune_continues_from_weights(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        gan.fit(data, epochs=1)
        state = gan.state_dict()
        gan.fine_tune(data, epochs=1)
        changed = any(
            not np.allclose(state[k], v)
            for k, v in gan.state_dict().items()
        )
        assert changed

    def test_losses_bounded_with_one_sided_gp(self, encoded):
        """Regression test for the exploding-critic failure mode."""
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        log = gan.fit(data, epochs=5)
        assert all(abs(v) < 100 for v in log.d_loss)


class TestGeneration:
    def test_shapes_and_bounds(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        gan.fit(data, epochs=1)
        out = gan.generate(40, seed=1)
        assert out.metadata.shape == (40, encoder.metadata_width)
        assert out.measurements.shape == (40, 6, encoder.measurement_width)
        assert out.metadata.min() >= 0 and out.metadata.max() <= 1

    def test_flags_are_prefixes_with_min_one(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        gan.fit(data, epochs=1)
        out = gan.generate(60, seed=2)
        for row in out.gen_flags:
            active = np.nonzero(row)[0]
            assert len(active) >= 1
            assert active.max() == len(active) - 1

    def test_generation_deterministic_with_seed(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        gan.fit(data, epochs=1)
        a = gan.generate(10, seed=5)
        b = gan.generate(10, seed=5)
        np.testing.assert_allclose(a.metadata, b.metadata)

    def test_zero_samples_raises(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        with pytest.raises(ValueError):
            gan.generate(0)

    def test_generated_decodes_to_trace(self, encoded):
        data, encoder = encoded
        trace = load_dataset("ugr16", n_records=250, seed=0)
        gan = DoppelGANger(make_config(encoder), seed=0)
        gan.fit(data, epochs=2)
        out = gan.generate(50, seed=1)
        decoded = encoder.decode(out, time_range(trace))
        decoded.validate()
        assert len(decoded) >= 50  # each flow has >= 1 record


class TestStateDict:
    def test_roundtrip(self, encoded):
        data, encoder = encoded
        gan1 = DoppelGANger(make_config(encoder), seed=0)
        gan1.fit(data, epochs=1)
        gan2 = DoppelGANger(make_config(encoder), seed=9)
        gan2.load_state_dict(gan1.state_dict())
        a = gan1.generate(8, seed=3)
        b = gan2.generate(8, seed=3)
        np.testing.assert_allclose(a.metadata, b.metadata)

    def test_num_parameters_positive(self, encoded):
        _, encoder = encoded
        gan = DoppelGANger(make_config(encoder), seed=0)
        assert gan.num_parameters() > 1000


class TestDpTraining:
    def test_fit_dp_runs(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder, batch_size=8), seed=0)
        log = gan.fit_dp(
            data, epochs=1,
            dp_config=DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0),
        )
        assert log.steps > 0

    def test_dp_weights_clipped(self, encoded):
        data, encoder = encoded
        gan = DoppelGANger(make_config(encoder, batch_size=8), seed=0)
        gan.fit_dp(
            data, epochs=1,
            dp_config=DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0),
            clip_weights=0.05,
        )
        for p in gan._d_params:
            assert np.abs(p.data).max() <= 0.05 + 1e-12

    def test_dp_noise_changes_training(self, encoded):
        data, encoder = encoded
        outputs = []
        for noise in (0.5, 5.0):
            gan = DoppelGANger(make_config(encoder, batch_size=8), seed=0)
            gan.fit_dp(data, epochs=1, dp_config=DpSgdConfig(
                clip_norm=1.0, noise_multiplier=noise))
            outputs.append(gan.generate(10, seed=1).metadata)
        assert not np.allclose(outputs[0], outputs[1])


def _bits(value):
    """Exact bit pattern of an array (or nested list of arrays)."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    value = np.asarray(value)
    return (value.shape, value.dtype.str, value.tobytes())


def _head(data, n):
    return EncodedFlows(data.metadata[:n], data.measurements[:n],
                        data.gen_flags[:n])


@pytest.fixture
def tape_mode():
    """Force tapes on/off inside a test; restore the default after."""
    from repro.nn import tape

    yield tape.configure
    tape.configure(None)


class TestDpBatchedParity:
    """The batched per-example DP critic pass must reproduce the
    per-example loop oracle bit for bit: per-example losses, privatized
    gradients and weights after every step, then the loss log and
    final state of a whole ``fit_dp``."""

    DP = DpSgdConfig(clip_norm=1.0, noise_multiplier=0.7)

    def _run(self, data, encoder, loop, aux=True, steps=3):
        from repro.nn import Tensor, stack
        from repro.nn.tape import compiled_step

        gan = DoppelGANger(make_config(encoder, batch_size=8,
                                       use_aux_discriminator=aux), seed=2)
        if loop:
            gan._dp_critic_gradients = gan._dp_critic_gradients_loop
        noise_rng = np.random.default_rng(5)

        # The DP step body with its privatized gradients as outputs, so
        # a replayed tape hands them back on every step.
        def core(b):
            losses, noisy = gan._dp_critic_gradients(data, b, self.DP,
                                                     noise_rng)
            gan._d_opt.step(noisy)
            if isinstance(losses, list):
                losses = stack(losses)
            return [losses] + [Tensor(g) for g in noisy]

        step = compiled_step(core, "test.dp_step", extract="array")
        b = min(8, len(data))
        record = []
        for _ in range(steps):
            outputs = step.run((b,), b)
            record.append(_bits(outputs)
                          + _bits([p.data for p in gan._d_params]))
        log = gan.fit_dp(data, epochs=2, dp_config=self.DP, seed=3)
        record.append([list(log.d_loss), list(log.g_loss)])
        record.append(_bits(list(gan.state_dict().values())))
        return record

    @pytest.mark.parametrize("taped", [False, True],
                             ids=["eager", "taped"])
    @pytest.mark.parametrize("rows", [None, 5],
                             ids=["full_chunk", "chunk_below_batch"])
    def test_batched_matches_loop_oracle(self, encoded, tape_mode, taped,
                                         rows):
        data, encoder = encoded
        if rows is not None:
            data = _head(data, rows)
        tape_mode(taped)
        assert (self._run(data, encoder, loop=False)
                == self._run(data, encoder, loop=True))

    def test_batched_matches_loop_without_aux_critic(self, encoded,
                                                     tape_mode):
        data, encoder = encoded
        tape_mode(True)
        assert (self._run(data, encoder, loop=False, aux=False)
                == self._run(data, encoder, loop=True, aux=False))

    def test_fit_dp_tape_parity(self, encoded, monkeypatch):
        """REPRO_NN_TAPE=0 (the eager oracle) and the taped fit_dp
        must agree bitwise on losses and weights."""
        data, encoder = encoded

        def fit(tape_env):
            monkeypatch.setenv("REPRO_NN_TAPE", tape_env)
            gan = DoppelGANger(make_config(encoder, batch_size=8), seed=4)
            log = gan.fit_dp(data, epochs=2, dp_config=self.DP, seed=6)
            return ([list(log.d_loss), list(log.g_loss)],
                    _bits(list(gan.state_dict().values())))

        assert fit("0") == fit("1")
