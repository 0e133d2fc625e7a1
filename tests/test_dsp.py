"""FIR primitive tests: hand examples, purity, and the convolution oracle."""

import numpy as np
import pytest

from equalab import ConfigurationError, InputError, taps
from equalab.dsp import dot, shift_in


class TestDot:
    def test_identity_tap(self):
        assert dot(taps([1, 0, 0]), np.array([0.5, 9.0, -3.0])) == 0.5

    def test_zero_filter(self):
        assert dot(taps([0, 0, 0]), np.array([1.3, -2.0, 7.0])) == 0.0

    def test_hand_sum(self):
        # 0.407 + 0.815 + 0.407 summed as exact decimals
        got = dot(taps([0.407, 0.815, 0.407]), np.array([1.0, 1.0, 1.0]))
        assert got == pytest.approx(1.629, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            dot(taps([1, 2]), np.zeros(3))

    def test_sums_in_tap_order(self):
        # 2^53 + 1.0 is a tie that rounds back to 2^53: summed from 0.0 in
        # tap order, every 1.0 is lost; a sum in blocks or lanes keeps some.
        big = 2.0**53
        assert dot(taps([big, 1.0, 1.0, -big] * 5), np.ones(20)) == 0.0


class TestShiftIn:
    def test_basic_shift(self):
        line = np.zeros(3)
        line = shift_in(line, 1.0)
        assert line.tolist() == [1.0, 0.0, 0.0]
        line = shift_in(line, -1.0)
        assert line.tolist() == [-1.0, 1.0, 0.0]

    def test_flush_with_zeros(self):
        line = shift_in(shift_in(np.zeros(2), 5.0), -3.0)
        for _ in range(2):
            line = shift_in(line, 0.0)
        assert line.tolist() == [0.0, 0.0]

    def test_input_not_mutated(self):
        line = shift_in(np.zeros(3), 2.0)
        before = line.copy()
        shift_in(line, 7.0)
        assert np.array_equal(line, before)

    def test_zero_capacity(self):
        line = np.zeros(0)
        assert shift_in(line, 1.0).size == 0

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            shift_in(np.zeros(2), float("nan"))
        with pytest.raises(InputError):
            shift_in(np.zeros(2), float("inf"))


class TestFirStep:
    def test_passthrough(self):
        w = taps([1.0])
        line = np.zeros(1)
        for x in (0.3, -2.5, 0.0, 7.0):
            line = shift_in(line, x)
            assert dot(w, line) == x

    def test_impulse_response_is_coefficients(self):
        w = taps([0.407, 0.815, 0.407])
        line = np.zeros(3)
        outs = []
        for x in [1.0, 0.0, 0.0, 0.0, 0.0]:
            line = shift_in(line, x)
            outs.append(dot(w, line))
        assert outs == [0.407, 0.815, 0.407, 0.0, 0.0]

    def test_hand_convolution(self):
        w = taps([1.0, 1.0])
        line = np.zeros(2)
        outs = []
        for x in [1.0, -1.0, 1.0, -1.0]:
            line = shift_in(line, x)
            outs.append(dot(w, line))
        assert outs == [1.0, 0.0, 0.0, 0.0]


def _stream(weights, samples):
    line = np.zeros(weights.size)
    out = np.empty(len(samples))
    for i, x in enumerate(samples):
        line = shift_in(line, x)
        out[i] = dot(weights, line)
    return out


class TestStreamingVsConvolution:
    # Acceptance criterion 3 checks the stream against np.convolve on 100
    # random filters and inputs.

    def test_linearity(self):
        rng = np.random.default_rng(11)
        w = taps(rng.normal(size=8))
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        a, b = 1.7, -0.4
        combined = _stream(w, a * x + b * y)
        separate = a * _stream(w, x) + b * _stream(w, y)
        np.testing.assert_allclose(combined, separate, atol=1e-12, rtol=0)
