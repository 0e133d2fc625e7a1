"""Source and channel tests: determinism, hand convolution, noise statistics,
and the compiled PCG64 draws against numpy.random."""

import math
import random

import numpy as np
import pytest

from equalab import (
    ConfigurationError,
    InputError,
    _kernel,
    apply_channel,
    gaussian,
    generate_bpsk,
    txrx,
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
        # also non-finite, not 1-D, no numbers, ragged
        for impulse in ([], [1.0, np.nan], [[1.0]], "0.5,0.3", (1j,), [[0.5], [0.3, 0.1]]):
            with pytest.raises(ConfigurationError):
                apply_channel(np.ones(4), impulse)

    def test_rejects_negative_variance(self):
        for variance in (-1.0, np.nan, np.inf):
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

    def test_sums_in_tap_order(self):
        # 2^53 + 1.0 is a tie that rounds back to 2^53: summed from 0.0 in
        # tap order, every 1.0 is lost; a sum in blocks or lanes keeps some.
        big = 2.0**53
        assert apply_channel(np.ones(20), [big, 1.0, 1.0, -big] * 5).tolist() == [big, big, big, 0.0] * 5

    def test_rejects_empty_input(self):
        with pytest.raises(InputError):
            apply_channel(np.array([]), [1.0])

    def test_overflow_is_a_non_finite_sample_without_a_warning(self):
        # The suite turns every warning into an error.
        rx = apply_channel(np.ones(3), [1e308, 1e308], 1.0, 0)
        assert rx[0] > 1e307 and rx[1:].tolist() == [math.inf, math.inf]
        # 10 * 1e308 overflows, and adding -inf to inf gives nan.
        assert np.isnan(apply_channel(np.full(2, 1e308), [10.0, -10.0])[1])

    @pytest.mark.parametrize("tx", [np.ones((2, 3)), 1.0])
    def test_rejects_input_that_is_not_1d(self, tx):
        with pytest.raises(InputError, match="1-D"):
            apply_channel(tx, [1.0, 0.5])

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


class TestArgumentChecks:
    """Bad counts, variances and seeds are InputErrors, whichever way the
    uniforms are drawn."""

    @pytest.fixture(params=["c", "numpy"])
    def draws(self, request, use_kernel):
        use_kernel(request.param)

    def test_negative_count(self, draws):
        for variance in (1.0, 0.0):
            with pytest.raises(InputError, match="count"):
                gaussian(-3, variance, 0)

    @pytest.mark.parametrize("n", [2.5, np.float64(3.0), "3", None])
    def test_non_integer_count(self, draws, n):
        with pytest.raises(InputError, match="symbol count must be an integer"):
            generate_bpsk(n, 0)
        for variance in (1.0, 0.0):
            with pytest.raises(InputError, match="sample count must be an integer"):
                gaussian(n, variance, 0)

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
    def test_non_finite_variance(self, draws, variance):
        with pytest.raises(InputError, match="variance"):
            gaussian(4, variance, 0)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 2.5, "3", None, np.float64(1.0)])
    def test_bad_seed(self, draws, seed):
        # A negative seed is refused before the draws, which cannot split
        # it into 32-bit words.
        with pytest.raises(InputError, match="seed"):
            generate_bpsk(4, seed)
        with pytest.raises(InputError, match="seed"):
            gaussian(4, 1.0, seed)
        with pytest.raises(InputError, match="seed"):
            apply_channel(np.ones(4), [1.0], 0.5, seed)

    def test_integer_types_are_seeds(self, draws):
        want = generate_bpsk(50, 7).tobytes(), gaussian(51, 0.5, 7).tobytes()
        for seed in (np.int64(7), np.uint8(7), np.int32(7)):
            assert (generate_bpsk(50, seed).tobytes(), gaussian(51, 0.5, seed).tobytes()) == want

    def test_integer_types_are_counts(self, draws):
        want = generate_bpsk(50, 7).tobytes(), gaussian(51, 0.5, 7).tobytes()
        for n, m in ((np.int64(50), np.int64(51)), (np.uint16(50), np.int32(51))):
            assert (generate_bpsk(n, 7).tobytes(), gaussian(m, 0.5, 7).tobytes()) == want

    def test_empty_draw(self, draws):
        assert gaussian(0, 1.0, 3).shape == (0,)


# Seeds of one to ten 32-bit words: the seed expansion pads the first four
# words, and mixes any beyond them into the pool one by one.
_SEEDS = sorted(
    set(range(150))
    | {2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64 + 3, 2**96 - 1, 2**128 - 1, 2**128, 2**128 + 11}
    | {2**200 + 7, 2**319 + 1}
    | {random.Random(5).getrandbits(bits) for bits in range(20, 330, 6)}
)


def _numpy_uniform(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).random(n)


class TestCompiledDraws:
    """The uniforms drawn in the compiled kernel are numpy.random's, byte for byte."""

    def test_seed_set(self):
        assert len(_SEEDS) >= 200 and _SEEDS[0] == 0 and _SEEDS[-1] > 2**300

    def test_draws_are_numpys(self, compiled):
        for seed in _SEEDS:
            for n in (1, 2, 3, 37, 5001):
                assert txrx._uniform(seed, n).tobytes() == _numpy_uniform(seed, n).tobytes(), (seed, n)

    def test_recorded_draws_are_numpys(self):
        # The probe's stored draws, which the compiled draws must reproduce,
        # each as float.hex writes it, since the probe compares the text.
        for seed, want in _kernel.RECORDED.items():
            assert tuple(x.hex() for x in _numpy_uniform(seed, len(want)).tolist()) == want
