"""Tests for the privacy substrate: accountant, DP-SGD, extensions."""

import numpy as np
import pytest

from repro.datasets import ip_to_int, load_dataset
from repro.privacy import (
    DpSgdConfig,
    RdpAccountant,
    compute_epsilon,
    noise_multiplier_for_epsilon,
    privatize_gradients,
    retrain_attribute,
    stack_examples,
    transform_ips,
)


class TestAccountant:
    def test_epsilon_grows_with_steps(self):
        e1 = compute_epsilon(1.0, 0.05, num_steps=10)
        e2 = compute_epsilon(1.0, 0.05, num_steps=100)
        assert e2 > e1

    def test_epsilon_shrinks_with_noise(self):
        e_low_noise = compute_epsilon(0.7, 0.05, num_steps=50)
        e_high_noise = compute_epsilon(4.0, 0.05, num_steps=50)
        assert e_high_noise < e_low_noise

    def test_epsilon_shrinks_with_sampling(self):
        e_small_batch = compute_epsilon(1.0, 0.01, num_steps=50)
        e_full_batch = compute_epsilon(1.0, 1.0, num_steps=50)
        assert e_small_batch < e_full_batch

    def test_full_batch_matches_gaussian_mechanism(self):
        """q=1: RDP is alpha/(2 sigma^2); check conversion is sane."""
        sigma, steps, delta = 2.0, 10, 1e-5
        eps = compute_epsilon(sigma, 1.0, steps, delta)
        orders = np.arange(2, 65)
        expected = (steps * orders / (2 * sigma**2)
                    + np.log(1 / delta) / (orders - 1)).min()
        assert eps == pytest.approx(expected, rel=1e-9)

    def test_zero_sampling_is_free(self):
        assert compute_epsilon(1.0, 0.0, num_steps=100) == pytest.approx(
            np.log(1e5) / 63, rel=1e-6
        )  # only the delta conversion term at the largest order

    def test_accumulation_equals_one_shot(self):
        acc = RdpAccountant()
        for _ in range(20):
            acc.step(1.2, 0.1)
        assert acc.get_epsilon(1e-5) == pytest.approx(
            compute_epsilon(1.2, 0.1, 20), rel=1e-12
        )

    def test_invalid_params_raise(self):
        acc = RdpAccountant()
        with pytest.raises(ValueError):
            acc.step(0.0, 0.1)
        with pytest.raises(ValueError):
            acc.step(1.0, 1.5)
        with pytest.raises(ValueError):
            acc.get_epsilon(0.0)
        with pytest.raises(ValueError):
            RdpAccountant(orders=[1])

    def test_noise_search_hits_target(self):
        target = 10.0
        sigma = noise_multiplier_for_epsilon(target, 0.1, 100)
        achieved = compute_epsilon(sigma, 0.1, 100)
        assert achieved <= target * 1.01
        # And it should not be wildly conservative.
        assert compute_epsilon(sigma * 0.8, 0.1, 100) > target * 0.8

    def test_noise_search_monotone_in_epsilon(self):
        weak = noise_multiplier_for_epsilon(1e6, 0.1, 50)
        strong = noise_multiplier_for_epsilon(1.0, 0.1, 50)
        assert strong > weak

    def test_noise_search_invalid_target(self):
        with pytest.raises(ValueError):
            noise_multiplier_for_epsilon(-1.0, 0.1, 10)


class TestPrivatizeGradients:
    def test_clipping_bounds_contribution(self):
        config = DpSgdConfig(clip_norm=1.0, noise_multiplier=0.0)
        rng = np.random.default_rng(0)
        huge = [np.array([[100.0, 0.0]])]   # one example, one param
        out = privatize_gradients(huge, config, rng)
        np.testing.assert_allclose(np.linalg.norm(out[0]), 1.0)

    def test_no_noise_no_clip_is_mean(self):
        config = DpSgdConfig(clip_norm=1e9, noise_multiplier=0.0)
        rng = np.random.default_rng(0)
        grads = [np.array([[1.0, 2.0], [3.0, 4.0]])]   # two examples
        out = privatize_gradients(grads, config, rng)
        np.testing.assert_allclose(out[0], [2.0, 3.0])

    def test_noise_has_expected_scale(self):
        config = DpSgdConfig(clip_norm=1.0, noise_multiplier=2.0)
        rng = np.random.default_rng(0)
        zero_grads = [np.zeros((1, 2000))]
        out = privatize_gradients(zero_grads, config, rng)
        # std of noise/n with n=1 should be ~ sigma*C = 2.0
        assert 1.8 < out[0].std() < 2.2

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            privatize_gradients([], DpSgdConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            privatize_gradients([np.zeros((0, 3))], DpSgdConfig(),
                                np.random.default_rng(0))
        with pytest.raises(ValueError):
            stack_examples([])
        from repro.privacy.dpsgd import _privatize_gradients_loop
        with pytest.raises(ValueError):
            _privatize_gradients_loop([], DpSgdConfig(),
                                      np.random.default_rng(0))

    @pytest.mark.parametrize("clip_norm,noise", [
        (1.0, 1.2),     # most examples clipped, noisy
        (50.0, 0.7),    # mixed clipped/unclipped
        (1e9, 0.0),     # nothing clipped, no noise
    ])
    def test_vectorized_matches_loop_bitwise(self, clip_norm, noise):
        """The batched kernel must be *bit-identical* to the
        per-example reference — same reduction order, same noise
        draws — so vectorization changes cost, never results."""
        from repro.privacy.dpsgd import _privatize_gradients_loop

        rng = np.random.default_rng(3)
        grads = [
            [rng.normal(size=(4, 3)) * scale,
             rng.normal(size=(7,)) * scale,
             rng.normal(size=(2, 2, 2)) * scale]
            for scale in (0.01, 1.0, 30.0, 0.0, 5.0, 0.3)
        ]
        config = DpSgdConfig(clip_norm=clip_norm, noise_multiplier=noise)
        fast = privatize_gradients(stack_examples(grads), config,
                                   np.random.default_rng(9))
        slow = _privatize_gradients_loop(grads, config,
                                         np.random.default_rng(9))
        assert len(fast) == len(slow) == 3
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)

    def test_blocks_must_share_example_count(self):
        with pytest.raises(ValueError):
            privatize_gradients([np.zeros((3, 2)), np.zeros((2, 4))],
                                DpSgdConfig(), np.random.default_rng(0))

    def test_bad_config_raises(self):
        with pytest.raises(ValueError):
            DpSgdConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            DpSgdConfig(noise_multiplier=-1.0)


class TestIpTransformation:
    @pytest.fixture(scope="class")
    def trace(self):
        return load_dataset("ugr16", n_records=400, seed=0)

    def test_ips_land_in_target_range(self, trace):
        out = transform_ips(trace, "10.0.0.0", 8, seed=0)
        assert np.all((out.src_ip >> 24) == 10)
        assert np.all((out.dst_ip >> 24) == 10)

    def test_popularity_structure_preserved(self, trace):
        out = transform_ips(trace, "10.0.0.0", 8, seed=0)
        _, real_counts = np.unique(trace.src_ip, return_counts=True)
        _, new_counts = np.unique(out.src_ip, return_counts=True)
        np.testing.assert_array_equal(
            np.sort(real_counts), np.sort(new_counts)
        )

    def test_bijection(self, trace):
        out = transform_ips(trace, "10.0.0.0", 8, seed=0)
        n_before = len(np.unique(np.concatenate([trace.src_ip, trace.dst_ip])))
        n_after = len(np.unique(np.concatenate([out.src_ip, out.dst_ip])))
        assert n_before == n_after

    def test_original_not_mutated(self, trace):
        before = trace.src_ip.copy()
        transform_ips(trace, "10.0.0.0", 8, seed=0)
        np.testing.assert_array_equal(trace.src_ip, before)

    def test_range_too_small_raises(self, trace):
        with pytest.raises(ValueError):
            transform_ips(trace, "10.0.0.0", 30, seed=0)

    def test_bad_prefix_raises(self, trace):
        with pytest.raises(ValueError):
            transform_ips(trace, "10.0.0.0", 0)


class TestAttributeRetraining:
    @pytest.fixture(scope="class")
    def trace(self):
        return load_dataset("ugr16", n_records=500, seed=0)

    def test_distribution_followed(self, trace):
        out = retrain_attribute(trace, "dst_port", {80: 0.5, 443: 0.5}, seed=0)
        assert set(np.unique(out.dst_port)) <= {80, 443}
        share_80 = (out.dst_port == 80).mean()
        assert 0.4 < share_80 < 0.6

    def test_other_columns_untouched(self, trace):
        out = retrain_attribute(trace, "dst_port", {80: 1.0}, seed=0)
        np.testing.assert_array_equal(out.src_ip, trace.src_ip)
        np.testing.assert_array_equal(out.packets, trace.packets)

    def test_protocol_retraining(self, trace):
        out = retrain_attribute(trace, "protocol", {6: 1.0}, seed=0)
        assert np.all(out.protocol == 6)

    def test_unknown_attribute_raises(self, trace):
        with pytest.raises(ValueError):
            retrain_attribute(trace, "bytes", {1: 1.0})

    def test_empty_distribution_raises(self, trace):
        with pytest.raises(ValueError):
            retrain_attribute(trace, "dst_port", {})

    def test_negative_probability_raises(self, trace):
        with pytest.raises(ValueError):
            retrain_attribute(trace, "dst_port", {80: -0.5, 443: 1.5})
