"""Source and channel tests: determinism, hand convolution, noise statistics."""

import numpy as np
import pytest

from equalab import (
    ConfigurationError,
    InputError,
    apply_channel,
    gaussian,
    generate_bpsk,
)


class TestGenerateBpsk:
    def test_deterministic_per_seed(self):
        a = generate_bpsk(4, 123)
        b = generate_bpsk(4, 123)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_bpsk(4, 124))

    def test_symbols_are_antipodal(self):
        s = generate_bpsk(1000, 5)
        assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_rejects_zero_length(self):
        with pytest.raises(InputError):
            generate_bpsk(0, 1)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_mean_concentrates(self, seed):
        s = generate_bpsk(100_000, seed)
        assert abs(float(s.mean())) < 0.02


class TestGaussian:
    def test_zero_variance_is_zero(self):
        assert np.array_equal(gaussian(10, 0.0, 3), np.zeros(10))

    def test_deterministic_per_seed(self):
        assert np.array_equal(gaussian(64, 2.0, 9), gaussian(64, 2.0, 9))

    def test_rejects_negative_variance(self):
        with pytest.raises(InputError):
            gaussian(4, -0.1, 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unit_variance_statistics(self, seed):
        g = gaussian(100_000, 1.0, seed)
        assert abs(float(g.mean())) < 0.02
        assert abs(float(g.var()) - 1.0) < 0.05

    def test_odd_length(self):
        assert gaussian(7, 1.0, 2).shape == (7,)


class TestChannelModel:
    """The channel arguments of `apply_channel`: impulse, noise variance and seed."""

    def test_rejects_empty_impulse(self):
        for impulse in ([], [1.0, np.nan], [[1.0]]):  # also non-finite and not 1-D
            with pytest.raises(ConfigurationError):
                apply_channel(np.ones(4), impulse)

    def test_rejects_negative_variance(self):
        for variance in (-1.0, np.nan):
            with pytest.raises(ConfigurationError) as exc:
                apply_channel(np.ones(4), [1.0], noise_variance=variance)
            assert exc.value.field == "noise_variance"

    def test_impulse_coerced_to_float(self):
        rx = apply_channel([1, -1, 1], [1, 0])
        assert rx.dtype == np.float64 and rx.tolist() == [1.0, -1.0, 1.0]


class TestApplyChannel:
    def test_identity_channel_is_exact_passthrough(self):
        tx = generate_bpsk(500, 8)
        rx = apply_channel(tx, [1.0])
        assert np.array_equal(rx, tx)

    def test_hand_convolution_prefix(self):
        tx = np.array([1.0, 1.0, -1.0, 1.0])
        rx = apply_channel(tx, [0.407, 0.815, 0.407])
        assert rx.shape == tx.shape
        np.testing.assert_allclose(rx[:3], [0.407, 1.222, 0.815], atol=1e-12, rtol=0)

    def test_rejects_empty_input(self):
        with pytest.raises(InputError):
            apply_channel(np.array([]), [1.0])

    def test_noise_variance_estimate(self):
        sigma2 = 0.04
        rx = apply_channel(np.ones(100_000), [1.0], sigma2, 5)
        est = float(np.var(rx - 1.0))
        assert abs(est - sigma2) < 0.05 * sigma2

    def test_linearity_without_noise(self):
        rng = np.random.default_rng(3)
        h = [0.9, -0.3, 0.1]
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        lhs = apply_channel(2.0 * x - 0.5 * y, h)
        rhs = 2.0 * apply_channel(x, h) - 0.5 * apply_channel(y, h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)

    def test_pipeline_fully_deterministic(self):
        a = apply_channel(generate_bpsk(300, 4), [0.84, 0.543], 0.01, noise_seed=77)
        b = apply_channel(generate_bpsk(300, 4), [0.84, 0.543], 0.01, noise_seed=77)
        assert a.tobytes() == b.tobytes()
