"""Tests for the end-to-end NetShare pipeline."""

import numpy as np
import pytest

from repro import FlowTrace, NetShare, NetShareConfig, PacketTrace, load_dataset
from repro.privacy import DpSgdConfig


def fast_config(**kwargs):
    defaults = dict(n_chunks=2, epochs_seed=3, epochs_fine_tune=2,
                    ip2vec_public_records=600, batch_size=32, seed=0)
    defaults.update(kwargs)
    return NetShareConfig(**defaults)


@pytest.fixture(scope="module")
def netflow():
    return load_dataset("ugr16", n_records=350, seed=0)


@pytest.fixture(scope="module")
def pcap():
    return load_dataset("caida", n_records=350, seed=0)


@pytest.fixture(scope="module")
def fitted_netflow(netflow):
    return NetShare(fast_config()).fit(netflow)


class TestConfig:
    def test_defaults_valid(self):
        NetShareConfig()

    def test_bad_chunks(self):
        with pytest.raises(ValueError):
            NetShareConfig(n_chunks=0)

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            NetShareConfig(epochs_seed=0)


class TestFit:
    def test_netflow(self, fitted_netflow):
        assert fitted_netflow.cpu_seconds > 0
        assert fitted_netflow.wall_seconds > 0

    def test_serial_wall_is_measured(self, fitted_netflow):
        """wall_seconds is measured (not modelled): on the serial
        backend it covers every task plus dispatch overhead, so it is
        at least the per-task cpu_seconds sum."""
        assert fitted_netflow.backend == "serial"
        assert fitted_netflow.wall_seconds >= fitted_netflow.cpu_seconds

    def test_pcap(self, pcap):
        model = NetShare(fast_config(max_timesteps=12)).fit(pcap)
        syn = model.generate(150, seed=1)
        assert isinstance(syn, PacketTrace)

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            NetShare(fast_config()).fit(np.zeros(5))

    def test_rejects_empty(self, netflow):
        with pytest.raises(ValueError):
            NetShare(fast_config()).fit(netflow.subset(slice(0, 0)))

    def test_v0_configuration(self, netflow):
        """NetShare-V0 = single chunk, no fine-tuning (Fig 4)."""
        model = NetShare(fast_config(n_chunks=1, fine_tune_chunks=False))
        model.fit(netflow)
        assert len(model._chunks) == 1

    def test_bit_port_encoding_ablation(self, netflow):
        model = NetShare(fast_config(port_encoding="bit")).fit(netflow)
        syn = model.generate(100, seed=1)
        assert isinstance(syn, FlowTrace)


class TestGenerate:
    def test_type_and_size(self, fitted_netflow):
        syn = fitted_netflow.generate(200, seed=1)
        assert isinstance(syn, FlowTrace)
        assert len(syn) <= 200
        assert len(syn) >= 100

    def test_valid_trace(self, fitted_netflow):
        fitted_netflow.generate(150, seed=2).validate()

    def test_sorted_by_time(self, fitted_netflow):
        syn = fitted_netflow.generate(150, seed=3)
        assert np.all(np.diff(syn.start_time) >= 0)

    def test_deterministic_with_seed(self, fitted_netflow):
        a = fitted_netflow.generate(80, seed=7)
        b = fitted_netflow.generate(80, seed=7)
        np.testing.assert_array_equal(a.src_ip, b.src_ip)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            NetShare(fast_config()).generate(10)

    def test_zero_records_raises(self, fitted_netflow):
        with pytest.raises(ValueError):
            fitted_netflow.generate(0)

    def test_ports_come_from_public_dictionary(self, fitted_netflow):
        """With IP2Vec ports, decoded values are dictionary words from
        the *public* trace (the Insight-2 privacy property)."""
        syn = fitted_netflow.generate(100, seed=1)
        vocab = set(
            fitted_netflow._encoder.ip2vec.vocabulary_of_kind("dp"))
        assert set(syn.dst_port.tolist()) <= vocab

    def test_pcap_checksums_filled(self, pcap):
        """Post-processing computes the derived checksum field."""
        model = NetShare(fast_config(max_timesteps=12)).fit(pcap)
        syn = model.generate(120, seed=1)
        from repro.core.postprocess import compute_checksums

        np.testing.assert_array_equal(syn.checksum, compute_checksums(syn))


class TestDifferentialPrivacy:
    def test_naive_dp_runs_and_accounts(self, netflow):
        config = fast_config(
            n_chunks=1, epochs_seed=1, batch_size=8,
            dp=DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0),
        )
        model = NetShare(config).fit(netflow)
        assert model.spent_epsilon is not None
        assert model.spent_epsilon > 0
        syn = model.generate(80, seed=1)
        assert isinstance(syn, FlowTrace)

    def test_pretrained_dp_runs(self, netflow):
        config = fast_config(
            n_chunks=1, epochs_seed=1, epochs_fine_tune=1, batch_size=8,
            dp=DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0),
            dp_public_dataset="ugr16",  # same-kind public data
            dp_public_records=200,
            dp_public_epochs=1,
        )
        model = NetShare(config).fit(netflow)
        assert model.spent_epsilon is not None

    def test_pretraining_model_frees_its_tapes(self, netflow, monkeypatch):
        """The public pretraining model is dropped once its weights are
        copied out; its tapes must be freed then, not left to the
        cyclic collector while the DP fit runs (and forks)."""
        from repro.gan.doppelganger import DoppelGANger

        fitted = []
        fit = DoppelGANger.fit

        def recording_fit(self, *args, **kwargs):
            fitted.append(self)
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(DoppelGANger, "fit", recording_fit)
        config = fast_config(
            n_chunks=1, epochs_seed=1, epochs_fine_tune=1, batch_size=8,
            dp=DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0),
            dp_public_dataset="ugr16", dp_public_records=200,
            dp_public_epochs=1, jobs=1,
        )
        NetShare(config).fit(netflow)
        # With DP every chunk trains through fit_dp, so the first model
        # to run fit is the pretraining one.
        pretrained = fitted[0]
        assert len(pretrained._c_disc._tapes) == 0
        assert len(pretrained._c_gen._tapes) == 0

    def test_public_kind_mismatch_raises(self, netflow):
        config = fast_config(
            n_chunks=1, epochs_seed=1, batch_size=8,
            dp=DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0),
            dp_public_dataset="caida",  # pcap public vs netflow private
            dp_public_records=150,
        )
        with pytest.raises(ValueError):
            NetShare(config).fit(netflow)

    def test_more_noise_lower_epsilon(self, netflow):
        epsilons = []
        for noise in (0.8, 3.0):
            config = fast_config(
                n_chunks=1, epochs_seed=1, batch_size=8,
                dp=DpSgdConfig(clip_norm=1.0, noise_multiplier=noise),
            )
            epsilons.append(NetShare(config).fit(netflow).spent_epsilon)
        assert epsilons[1] < epsilons[0]
