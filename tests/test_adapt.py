"""Adaptation-rule tests: hand updates, step scaling, fixed points, descent.

The joint steps of both filters are `dfe_step`'s, driven here with chosen
regressors: the FF line after the sample is shifted in and the FB line of
past decisions.
"""

import numpy as np
import pytest

from equalab import (
    AdaptParams,
    ConfigurationError,
    DfeConfig,
    DfeState,
    dfe_step,
    dot,
    effective_step,
    lms_update,
    quantize,
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


def _dyadic_state(rng, n_ff=5, n_fb=3):
    """Like `_random_state`, in quarters: every sum a step forms is exact."""
    ff_w, ff_x, fb_w = (rng.integers(-8, 9, size=n) * 0.25 for n in (n_ff, n_ff, n_fb))
    return ff_w, ff_x, fb_w, np.sign(rng.normal(size=n_fb)) + 0.0


def _step(algo, ff_w, ff_x, fb_w, fb_x, mu=0.05, prev_error=0.0, reference=None):
    """One `dfe_step` whose FF regressor (the line after the shift) is ff_x and
    whose FB regressor (the decisions before this one) is fb_x; trained
    against `reference` if one is given."""
    mode = {} if reference is None else dict(mode="trained", training_len=1)
    cfg = DfeConfig(n_ff=ff_w.size, n_fb=fb_w.size, mu=mu, algo=algo, **mode)
    state = DfeState(ff_w, fb_w, np.append(ff_x[1:], 0.0), fb_x, prev_error)
    return dfe_step(state, float(ff_x[0]), reference, cfg)


class TestJointSteps:
    def test_composes_lms_update_on_both_filters(self):
        rng = np.random.default_rng(6)
        ff_w, ff_x, fb_w, fb_x = _random_state(rng)
        y = dot(ff_w, ff_x) - dot(fb_w, fb_x)
        p = AdaptParams(0.05)
        for algo, step in (("lms", 0.05), ("ilms", effective_step(p, quantize(y) - y, 0.3))):
            trace, nxt = _step(algo, ff_w, ff_x, fb_w, fb_x, prev_error=0.3)
            e = trace.error
            assert (trace.combiner_out, e, trace.effective_step) == (y, quantize(y) - y, step)
            assert np.array_equal(nxt.ff_weights, lms_update(ff_w, ff_x, e, step))
            # y subtracts the FB output, so the FB regressor is the negated decisions.
            assert np.array_equal(nxt.fb_weights, lms_update(fb_w, -fb_x, e, step))

    def test_empty_feedback_changes_only_ff(self):
        _, nxt = _step("lms", np.zeros(3), np.ones(3), np.zeros(0), np.zeros(0), mu=0.1)
        assert nxt.fb_weights.size == 0
        assert nxt.ff_weights.tolist() == [0.1, 0.1, 0.1]

    def test_sequential_zero_then_full(self):
        cfg = DfeConfig(n_ff=2, n_fb=0, mu=0.1)
        st = DfeState(np.array([1.0, 0.0]), np.zeros(0), np.zeros(2), np.zeros(0))
        trace, st = dfe_step(st, 1.0, None, cfg)  # y = 1: zero error
        assert trace.error == 0.0 and st.ff_weights.tolist() == [1.0, 0.0]
        trace, st = dfe_step(st, 0.0, None, cfg)  # y = 0, decision +1: e = 1 on line [0, 1]
        assert trace.error == 1.0 and st.ff_weights.tolist() == [1.0, 0.1]

    def test_improved_first_iteration_step(self):
        # Trained against +1 with y = -0.6: e = 1.6 against e(-1) = 0.
        trace, _ = _step("ilms", np.ones(1), np.array([-0.6]), np.zeros(0), np.zeros(0), reference=1.0)
        assert trace.error == pytest.approx(1.6, abs=1e-15)
        assert trace.effective_step == pytest.approx(0.08, abs=1e-15)

    def test_unit_difference_matches_conventional(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            state = _dyadic_state(rng)
            conv = _step("lms", *state)
            # dyadic errors keep |e - e_prev| exactly 1.0 in floating point
            e_prev = conv[0].error + float(rng.choice([-1.0, 1.0]))
            impr = _step("ilms", *state, prev_error=e_prev)
            assert impr[0].effective_step == conv[0].effective_step == 0.05
            assert np.array_equal(conv[1].ff_weights, impr[1].ff_weights)
            assert np.array_equal(conv[1].fb_weights, impr[1].fb_weights)

    def test_near_convergence_step_vanishes(self):
        trace, _ = _step("ilms", np.ones(1), np.array([0.9899]), np.zeros(0), np.zeros(0), prev_error=0.0100)
        assert trace.error == pytest.approx(0.0101, abs=1e-12)
        assert trace.effective_step < 0.05 * 0.001

    def test_zero_error_bit_identical_weights(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            ff_w, ff_x, fb_w, fb_x = _dyadic_state(rng)
            # Solve the first FF tap for y = +/-1 exactly: the decision, so e = 0.
            ff_x[0] = 1.0
            ff_w[0] = float(rng.choice([-1.0, 1.0])) - (dot(ff_w[1:], ff_x[1:]) - dot(fb_w, fb_x))
            mu = float(rng.uniform(0.01, 0.5))
            e_prev = float(rng.normal())
            for algo in ("lms", "ilms"):
                trace, nxt = _step(algo, ff_w, ff_x, fb_w, fb_x, mu=mu, prev_error=e_prev)
                assert trace.error == 0.0 and trace.effective_step > 0.0
                assert nxt.ff_weights.tobytes() == ff_w.tobytes()
                assert nxt.fb_weights.tobytes() == fb_w.tobytes()

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
