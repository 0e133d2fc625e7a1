"""Metric tests: smoothing, steady state, convergence detection, speedup, BER."""

import math

import numpy as np
import pytest

from equalab import (
    InputError,
    apply_channel,
    ber,
    convergence_iteration,
    gaussian,
    learning_curve,
    smooth,
    speedup,
    steady_state_mse,
)


def brute_smooth(x, w):
    return np.array([math.fsum(x[i : i + w]) / w for i in range(len(x) - w + 1)])


class TestSmooth:
    def test_window_one_is_identity(self):
        x = np.array([3.0, 0.25, 9.5, 0.0])
        assert np.array_equal(smooth(x, 1), x)

    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5, -3.25])
    @pytest.mark.parametrize("w", [1, 2, 4, 5])
    def test_constant_curve_preserved_exactly(self, c, w):
        out = smooth(np.full(12, c), w)
        assert out.shape == (12 - w + 1,)
        assert np.array_equal(out, np.full(12 - w + 1, c))

    def test_hand_averages(self):
        assert smooth(np.array([4.0, 0.0, 2.0]), 2).tolist() == [2.0, 1.0]

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 4, size=300)
        for w in (1, 3, 50, 300):
            np.testing.assert_allclose(smooth(x, w), brute_smooth(x, w), atol=1e-12, rtol=0)

    def test_sums_in_index_order(self):
        # 2^53 + 1.0 is a tie that rounds back to 2^53: summed from 0.0 in
        # index order, every 1.0 is lost; a sum in blocks or lanes keeps some.
        big = 2.0**53
        assert smooth(np.array([big, 1.0, 1.0, -big] * 5), 20).tolist() == [0.0]

    def test_rejects_bad_window(self):
        with pytest.raises(InputError):
            smooth(np.ones(4), 5)
        with pytest.raises(InputError):
            smooth(np.ones(4), 0)


class TestSteadyStateMse:
    def test_constant_curve(self):
        assert steady_state_mse(np.full(10, 2.5), 0.3) == 2.5

    def test_full_tail_is_global_mean(self):
        x = np.array([4.0, 0.0, 2.0, 2.0])
        assert steady_state_mse(x, 1.0) == 2.0

    def test_hand_tail(self):
        assert steady_state_mse(np.array([4.0, 4.0, 0.0, 0.0]), 0.5) == 0.0

    def test_rejects_empty_and_bad_fraction(self):
        with pytest.raises(InputError):
            steady_state_mse(np.array([]), 0.5)
        with pytest.raises(InputError):
            steady_state_mse(np.ones(4), 0.0)
        with pytest.raises(InputError):
            steady_state_mse(np.ones(4), 1.5)

    def test_prepend_invariance_when_tail_unchanged(self):
        rng = np.random.default_rng(1)
        tail = rng.uniform(0, 1, size=5)
        short = np.concatenate([rng.uniform(0, 1, size=5), tail])
        longer = np.concatenate([rng.uniform(0, 1, size=15), tail])
        # ceil(0.5*10) == ceil(0.25*20) == 5 -> same five samples averaged
        assert steady_state_mse(short, 0.5) == steady_state_mse(longer, 0.25)


class TestConvergenceIteration:
    def test_monotone_curve_crosses_at_known_index(self):
        smoothed = np.array([8.0, 4.0, 2.0, 1.2, 1.1, 1.0, 1.0, 1.0])
        assert convergence_iteration(smoothed, 1.0, 2, 1.3) == 3

    def test_diverging_curve_never_converges(self):
        assert convergence_iteration([5.0, 6.0, 7.0, 8.0], 1.0, 2, 1.5) is None

    def test_hand_scan(self):
        assert convergence_iteration([9.0, 9.0, 1.0, 1.0, 1.0, 1.0], 1.0, 2, 1.1) == 2

    def test_confirmation_span_must_fit(self):
        assert convergence_iteration([9.0, 9.0, 9.0, 1.0], 1.0, 2, 1.1) is None

    def test_transient_dip_is_rejected(self):
        assert convergence_iteration([9.0, 1.0, 9.0, 1.0, 1.0, 1.0], 1.0, 3, 1.1) == 3

    def test_monotone_in_ratio(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            vals = np.abs(rng.normal(size=40)).cumsum()[::-1].copy()
            steady = float(vals[-8:].mean())
            last = None
            for rho in (1.1, 1.5, 2.0, 4.0):
                idx = convergence_iteration(vals, steady, 4, rho)
                if last is not None and idx is not None and last[1] is not None:
                    assert idx <= last[1]
                last = (rho, idx)

    def test_rejects_bad_ratio(self):
        with pytest.raises(InputError):
            convergence_iteration([1.0, 1.0], 1.0, 1, 0.0)

    @staticmethod
    def convolved(below, w):
        """The window-count formula by integer convolution, O(n*w)."""
        if below.size < w:
            return None
        run = np.convolve(below.astype(np.int64), np.ones(w, dtype=np.int64), mode="valid")
        hits = np.nonzero(run == w)[0]
        return int(hits[0]) if hits.size else None

    @pytest.mark.parametrize(
        "below, w",
        [
            ([True, False, True], 3),  # below.size == w, no hit
            ([True, True, True], 3),  # below.size == w, a hit at 0
            ([False, True, False], 1),  # w == 1
            ([True, True, False, True], 2),  # a hit at 0
            ([False] * 6, 2),  # no hit
            ([True] * 2, 3),  # the span does not fit
            ([True] * 2, 5),  # nor with room to spare
        ],
    )
    def test_running_count_matches_convolution_at_the_edges(self, below, w):
        below = np.array(below)
        assert convergence_iteration(np.where(below, 0.0, 2.0), 1.0, w, 1.0) == self.convolved(below, w)

    def test_running_count_matches_convolution_on_random_curves(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            w = int(rng.integers(1, n + 1))
            below = rng.random(n) < rng.choice([0.5, 0.9, 0.99, 1.0])
            assert convergence_iteration(np.where(below, 0.0, 2.0), 1.0, w, 1.0) == self.convolved(below, w)


class TestSpeedup:
    def test_paper_ratio_semantics(self):
        assert speedup(620, 100) == pytest.approx(6.2, abs=1e-12)

    def test_equal_inputs(self):
        assert speedup(250, 250) == 1.0

    def test_hand_division(self):
        assert speedup(300, 120) == 2.5

    def test_absent_when_unconverged(self):
        assert speedup(None, 100) is None
        assert speedup(100, None) is None
        assert speedup(0, 100) is None


class TestBer:
    def test_perfect_decisions(self):
        tx = np.sign(np.random.default_rng(3).normal(size=100)) + 0.0
        dec = np.concatenate([np.ones(2), tx[:-2]])
        assert ber(dec, tx, delay=2, skip=2) == 0.0

    def test_all_flipped(self):
        tx = np.ones(50)
        assert ber(-tx, tx, delay=0, skip=0) == 1.0

    def test_counted_fraction(self):
        tx = np.ones(1000)
        dec = np.ones(1000)
        dec[[100, 500, 900]] = -1.0
        assert ber(dec, tx, delay=0, skip=0) == pytest.approx(0.003, abs=1e-15)

    def test_rejects_bad_ranges(self):
        tx = np.ones(10)
        with pytest.raises(InputError):
            ber(tx, tx, delay=-1, skip=0)
        with pytest.raises(InputError):
            ber(tx, tx, delay=3, skip=1)
        with pytest.raises(InputError):
            ber(tx, tx, delay=0, skip=10)
        with pytest.raises(InputError):
            ber(np.ones(10), np.ones(3), delay=0, skip=0)


class TestLearningCurve:
    def test_assembly_is_consistent(self):
        rng = np.random.default_rng(4)
        sq = np.concatenate([np.linspace(9, 0.5, 200), 0.5 + 0.01 * rng.uniform(size=300)])
        curve = learning_curve(sq, window=20, ratio=1.5, tail_fraction=0.2)
        assert curve._fields == ("sq_errors", "smoothed", "steady_state_mse", "convergence_iter")
        assert curve.sq_errors.tobytes() == sq.tobytes()
        assert curve.smoothed.tobytes() == smooth(sq, 20).tobytes()
        assert curve.steady_state_mse == steady_state_mse(sq, 0.2)
        assert curve.convergence_iter == convergence_iteration(curve.smoothed, curve.steady_state_mse, 20, 1.5)
        assert curve.convergence_iter is not None
        assert curve.convergence_iter < sq.size


@pytest.mark.parametrize(
    "call",
    [
        # a curve that is not 1-D
        pytest.param(lambda: smooth(np.ones((2, 5)), 2), id="smooth-2d"),
        pytest.param(lambda: smooth(3.0, 1), id="smooth-scalar"),
        pytest.param(lambda: steady_state_mse(np.ones((2, 5)), 0.5), id="steady-2d"),
        pytest.param(lambda: convergence_iteration(np.ones((2, 5)), 1.0, 2, 1.5), id="convergence-2d"),
        pytest.param(lambda: ber(np.ones((2, 5)), np.ones((2, 5)), 0, 1), id="ber-2d"),
        pytest.param(lambda: ber(np.ones(10), np.ones((2, 5)), 0, 1), id="ber-2d-transmitted"),
        pytest.param(lambda: learning_curve(np.ones((2, 5)), 2, 1.5, 0.2), id="learning-curve-2d"),
        # a count that is no integer
        pytest.param(lambda: smooth(np.ones(10), 2.0), id="smooth-float-window"),
        pytest.param(lambda: learning_curve(np.ones(10), 2.0, 1.5, 0.2), id="learning-curve-float-window"),
        pytest.param(lambda: ber(np.ones(10), np.ones(10), 1.0, 2), id="ber-float-delay"),
        pytest.param(lambda: ber(np.ones(10), np.ones(10), 0, 2.0), id="ber-float-skip"),
        # a confirmation span that is no positive integer
        pytest.param(lambda: convergence_iteration(np.ones(4), 1.0, 0, 1.5), id="convergence-span-0"),
        pytest.param(lambda: convergence_iteration(np.ones(4), 1.0, 2.0, 1.5), id="convergence-float-span"),
        # a bad seed where no deviate is drawn
        pytest.param(lambda: gaussian(4, 0.0, -1), id="gaussian-variance-0-negative-seed"),
        pytest.param(lambda: gaussian(4, 0.0, "x"), id="gaussian-variance-0-text-seed"),
        pytest.param(lambda: apply_channel(np.ones(3), [1.0], 0.0, 2.5), id="channel-variance-0-float-seed"),
    ],
)
def test_malformed_input_is_an_input_error(call):
    with pytest.raises(InputError):
        call()
