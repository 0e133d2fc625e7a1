"""Adaptation-rule tests: hand updates, step scaling, fixed points, descent."""

import numpy as np
import pytest

from equalab import (
    AdaptParams,
    ConfigurationError,
    conventional_step,
    effective_step,
    improved_step,
    lms_update,
)


class TestAdaptParams:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigurationError):
            AdaptParams(mu=0.0)
        with pytest.raises(ConfigurationError):
            AdaptParams(mu=-0.1)
        with pytest.raises(ConfigurationError):
            AdaptParams(mu=0.1, step_floor=-1.0)
        with pytest.raises(ConfigurationError):
            AdaptParams(mu=0.1, step_floor=2.0, step_cap=0.1)  # cap < mu*floor

    def test_error_names_field(self):
        inf, nan = float("inf"), float("nan")
        for kw, field in (
            (dict(mu=0.0), "mu"),
            (dict(mu=inf), "mu"),
            (dict(mu=0.1, step_floor=nan), "step_floor"),
            (dict(mu=0.1, step_floor=inf), "step_floor"),
            (dict(mu=0.1, step_cap=inf), "step_cap"),
            (dict(mu=0.1, step_cap=nan), "step_cap"),
        ):
            with pytest.raises(ConfigurationError) as exc:
                AdaptParams(**kw)
            assert exc.value.field == field, kw


class TestLmsUpdate:
    def test_zero_error_is_fixed_point(self):
        w = np.array([0.3, -0.7])
        out = lms_update(w, np.array([1.0, 2.0]), 0.0, 0.1)
        assert np.array_equal(out, w)

    def test_hand_update_exact(self):
        out = lms_update(np.zeros(2), np.array([1.0, -1.0]), 1.0, 0.1)
        assert out.tolist() == [0.1, -0.1]

    def test_zero_step(self):
        w = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(lms_update(w, np.ones(3), 5.0, 0.0), w)

    def test_inputs_unmodified(self):
        w = np.array([1.0, -1.0])
        x = np.array([0.5, 0.5])
        lms_update(w, x, 2.0, 0.3)
        assert w.tolist() == [1.0, -1.0]
        assert x.tolist() == [0.5, 0.5]

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            lms_update(np.zeros(2), np.zeros(3), 1.0, 0.1)

    def test_per_coefficient_magnitude(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=6)
        x = rng.normal(size=6)
        e, step = 0.8, 0.05
        delta = lms_update(w, x, e, step) - w
        np.testing.assert_allclose(np.abs(delta), np.abs(step * e * x), atol=1e-15, rtol=0)


class TestEffectiveStep:
    def test_first_iteration_against_zero(self):
        assert effective_step(AdaptParams(0.1), 1.0, 0.0) == 0.1

    def test_equal_errors_stall(self):
        assert effective_step(AdaptParams(0.1), 0.37, 0.37) == 0.0

    def test_hand_difference(self):
        assert effective_step(AdaptParams(0.1), 2.5, 0.5) == pytest.approx(0.2, abs=1e-15)

    def test_floor_applies(self):
        assert effective_step(AdaptParams(0.1, step_floor=0.5), 0.2, 0.2) == 0.05

    def test_cap_applies(self):
        p = AdaptParams(0.1, step_cap=0.15)
        assert effective_step(p, 4.0, -4.0) == 0.15

    def test_cap_never_exceeded(self):
        rng = np.random.default_rng(4)
        p = AdaptParams(0.2, step_cap=0.1)
        for _ in range(200):
            e, ep = rng.normal(scale=3.0, size=2)
            assert 0.0 <= effective_step(p, e, ep) <= 0.1

    def test_doubling_difference_doubles_step(self):
        rng = np.random.default_rng(5)
        p = AdaptParams(0.05)
        for _ in range(100):
            d = float(rng.normal())
            assert effective_step(p, d, 0.0) * 2.0 == effective_step(p, 2.0 * d, 0.0)


def _random_state(rng, n_ff=5, n_fb=3):
    return (
        rng.normal(size=n_ff),
        rng.normal(size=n_ff),
        rng.normal(size=n_fb),
        np.sign(rng.normal(size=n_fb)) + 0.0,
    )


class TestJointSteps:
    def test_composes_lms_update_on_both_filters(self):
        rng = np.random.default_rng(6)
        ff_w, ff_x, fb_w, fb_x = _random_state(rng)
        e = 0.9
        p = AdaptParams(0.05)
        ff2, fb2, step = conventional_step(p, ff_w, ff_x, fb_w, fb_x, e)
        assert step == 0.05
        assert np.array_equal(ff2, lms_update(ff_w, ff_x, e, 0.05))
        assert np.array_equal(fb2, lms_update(fb_w, -fb_x, e, 0.05))

    def test_empty_feedback_changes_only_ff(self):
        ff2, fb2, _ = conventional_step(
            AdaptParams(0.1), np.zeros(3), np.ones(3), np.zeros(0), np.zeros(0), 1.0
        )
        assert fb2.size == 0
        assert ff2.tolist() == [0.1, 0.1, 0.1]

    def test_sequential_zero_then_full(self):
        p = AdaptParams(0.1)
        ff_w = np.zeros(2)
        x = np.array([1.0, -1.0])
        ff_w, fb_w, _ = conventional_step(p, ff_w, x, np.zeros(0), np.zeros(0), 0.0)
        assert ff_w.tolist() == [0.0, 0.0]
        ff_w, fb_w, _ = conventional_step(p, ff_w, x, fb_w, np.zeros(0), 1.0)
        assert ff_w.tolist() == [0.1, -0.1]

    def test_improved_first_iteration_step(self):
        ff2, _, step = improved_step(
            AdaptParams(0.05), np.zeros(1), np.ones(1), np.zeros(0), np.zeros(0), 1.6, 0.0
        )
        assert step == pytest.approx(0.08, abs=1e-15)

    def test_unit_difference_matches_conventional(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ff_w, ff_x, fb_w, fb_x = _random_state(rng)
            # dyadic e_prev keeps |e - e_prev| exactly 1.0 in floating point
            e_prev = float(rng.integers(-8, 9)) * 0.25
            e = e_prev + float(rng.choice([-1.0, 1.0]))
            p = AdaptParams(0.05)
            conv = conventional_step(p, ff_w, ff_x, fb_w, fb_x, e)
            impr = improved_step(p, ff_w, ff_x, fb_w, fb_x, e, e_prev)
            assert np.array_equal(conv[0], impr[0])
            assert np.array_equal(conv[1], impr[1])

    def test_near_convergence_step_vanishes(self):
        _, _, step = improved_step(
            AdaptParams(0.05), np.zeros(1), np.ones(1), np.zeros(0), np.zeros(0), 0.0101, 0.0100
        )
        assert step < 0.05 * 0.001

    def test_zero_error_bit_identical_weights(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            ff_w, ff_x, fb_w, fb_x = _random_state(rng)
            p = AdaptParams(float(rng.uniform(0.01, 0.5)))
            e_prev = float(rng.normal())
            for rule in (
                lambda: conventional_step(p, ff_w, ff_x, fb_w, fb_x, 0.0),
                lambda: improved_step(p, ff_w, ff_x, fb_w, fb_x, 0.0, e_prev),
            ):
                ff2, fb2, _ = rule()
                assert ff2.tobytes() == ff_w.tobytes()
                assert fb2.tobytes() == fb_w.tobytes()

    def test_single_step_descent(self):
        # With 0 < mu < 1/|x|^2 the post-update residual shrinks strictly.
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = rng.normal(size=int(rng.integers(1, 9)))
            w = rng.normal(size=x.size)
            ref = float(rng.choice([-1.0, 1.0]))
            e = ref - float(np.dot(w, x))
            if abs(e) < 1e-9:
                continue
            mu = float(rng.uniform(0.05, 0.95)) / float(np.dot(x, x))
            w2 = lms_update(w, x, e, mu)
            assert abs(ref - float(np.dot(w2, x))) < abs(e)
