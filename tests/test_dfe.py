"""Equalizer state-machine tests: quantizer, output y, error, stepping, invariants."""

import importlib.resources
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from equalab import ConfigurationError, DfeConfig, InputError, equalize, gaussian, generate_bpsk, taps
from equalab import _kernel, dfe
from equalab.dfe import MODE_TRAINED, DfeState, dfe_step, initial_state, quantize
from equalab.dsp import delay_line
from equalab.experiment import ExperimentConfig, draw, effective_steps
from spec_loop import run_spec, step_through


# Ids of the `lms` and `ilms` cases, kept as they were so that results stay
# comparable by id across versions.
_RULE_IDS = ["conventional", "improved"]

def cfg_dd(**kw):
    base = dict(n_ff=2, n_fb=0, mu=0.1)
    base.update(kw)
    return DfeConfig(**base)


class TestDfeConfig:
    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(n_ff=0), "n_ff"),
            (dict(n_fb=-1), "n_fb"),
            (dict(mu=0.0), "mu"),
            (dict(algo="rls"), "algo"),
            (dict(mode="blind"), "mode"),
            (dict(training_len=5), "training_len"),
            (dict(decision_delay=-1), "decision_delay"),
            (dict(step_floor=-0.5), "step_floor"),
            (dict(mode="trained", training_len=-1), "training_len"),
        ],
    )
    def test_rejects_bad_fields(self, kw, field):
        base = dict(n_ff=4, n_fb=2, mu=0.1)
        base.update(kw)
        with pytest.raises(ConfigurationError) as exc:
            DfeConfig(**base)
        assert exc.value.field == field

    def test_rejects_bad_step_ranges(self):
        for kw, message in (
            (dict(mu=0.0), "must be finite and > 0"),
            (dict(mu=-0.1), "must be finite and > 0"),
            (dict(mu=0.1, step_floor=-1.0), "must be finite and >= 0"),
            (dict(mu=0.1, step_floor=2.0, step_cap=0.1), "must be finite, > 0 and >= mu \\* step_floor"),
        ):
            with pytest.raises(ConfigurationError, match=message):
                DfeConfig(n_ff=3, n_fb=1, **kw)

    def test_step_error_names_field(self):
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
                DfeConfig(n_ff=3, n_fb=1, **kw)
            assert exc.value.field == field, kw

    def test_training_len_requires_trained_mode(self):
        DfeConfig(n_ff=4, n_fb=2, mu=0.1, mode="trained", training_len=5)

    def test_default_delay_is_ff_half_length(self):
        assert DfeConfig(n_ff=11, n_fb=5, mu=0.1).delay == 5
        assert DfeConfig(n_ff=1, n_fb=0, mu=0.1).delay == 0
        assert DfeConfig(n_ff=4, n_fb=0, mu=0.1, decision_delay=2).delay == 2

    def test_spike_needs_delay_inside_ff(self):
        with pytest.raises(ConfigurationError):
            DfeConfig(n_ff=3, n_fb=0, mu=0.1, decision_delay=3, center_spike=True)

    def test_initial_state_spike(self):
        st = initial_state(DfeConfig(n_ff=5, n_fb=2, mu=0.1, center_spike=True))
        assert st.ff_weights.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert st.fb_weights.tolist() == [0.0, 0.0]
        assert st.prev_error == 0.0 and st.iteration == 0


class TestQuantize:
    def test_positive_maps_to_plus_one(self):
        assert quantize(0.3) == 1.0

    def test_negative_maps_to_minus_one(self):
        assert quantize(-0.7) == -1.0

    def test_zero_tie_break(self):
        assert quantize(0.0) == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            quantize(float("nan"))


class TestCombiner:
    """The output y = FF line . FF weights - FB line . FB weights of `dfe_step`."""

    def test_zero_weights_zero_output(self):
        cfg = DfeConfig(n_ff=3, n_fb=2, mu=0.1)
        trace, _ = dfe_step(initial_state(cfg), 5.0, None, cfg)
        assert trace.combiner_out == 0.0

    def test_no_feedback_is_plain_ff(self):
        st = DfeState(taps([0.5, 0.25]), np.zeros(0), delay_line(2), delay_line(0))
        trace, _ = dfe_step(st, 2.0, None, cfg_dd())
        assert trace.combiner_out == 1.0  # 0.5*2 + 0.25*0

    def test_hand_ff_minus_fb(self):
        st = DfeState(taps([1.0]), taps([0.5, 0.0]), delay_line(1), np.array([1.0, -1.0]))
        trace, nxt = dfe_step(st, 1.0, None, cfg_dd(n_ff=1, n_fb=2))
        assert trace.combiner_out == 0.5
        assert nxt.ff_line.tolist() == [1.0]
        # The FB update uses the line that formed y, negated: the decision
        # (+1) enters the FB line only after it.
        assert nxt.fb_weights.tolist() == [0.5 - 0.05, 0.05]
        assert nxt.fb_line.tolist() == [1.0, 1.0]


class TestFormError:
    """The error e = reference - y of `dfe_step`."""

    def test_hand_values(self):
        cfg = cfg_dd(n_ff=1)
        st = DfeState(taps([1.0]), np.zeros(0), delay_line(1), delay_line(0))
        assert dfe_step(st, 0.6, None, cfg)[0].error == pytest.approx(0.4, abs=1e-15)
        assert dfe_step(st, 1.0, None, cfg)[0].error == 0.0

    def test_decision_directed_sign(self):
        st = DfeState(taps([1.0]), np.zeros(0), delay_line(1), delay_line(0))
        trace, _ = dfe_step(st, -0.2, None, cfg_dd(n_ff=1))
        assert trace.decision == -1.0
        assert trace.error == pytest.approx(-0.8, abs=1e-15)


class TestDfeStep:
    def test_cold_start(self):
        cfg = cfg_dd(n_ff=3, n_fb=2)
        trace, nxt = dfe_step(initial_state(cfg), 0.7, None, cfg)
        assert trace.combiner_out == 0.0
        assert trace.decision == 1.0
        assert trace.error == 1.0
        assert nxt.iteration == 1
        assert nxt.prev_error == 1.0

    def test_hand_lms_step(self):
        # FF line becomes [1, -1] after shifting in 1; zero weights give y=0,
        # decision +1, e=1, so conventional LMS lands on [0.1, -0.1].
        cfg = cfg_dd()
        st = DfeState(np.zeros(2), np.zeros(0), np.array([-1.0, 9.0]), delay_line(0))
        trace, nxt = dfe_step(st, 1.0, None, cfg)
        assert trace.error == 1.0
        assert nxt.ff_weights.tolist() == [0.1, -0.1]

    def test_improved_unit_difference_coincides(self):
        cfg = cfg_dd(algo="ilms")
        st = DfeState(np.zeros(2), np.zeros(0), np.array([-1.0, 9.0]), delay_line(0))
        trace, nxt = dfe_step(st, 1.0, None, cfg)
        assert trace.effective_step == 0.1
        assert nxt.ff_weights.tolist() == [0.1, -0.1]

    def test_training_requires_reference(self):
        cfg = cfg_dd(mode="trained", training_len=3)
        with pytest.raises(InputError):
            dfe_step(initial_state(cfg), 0.5, None, cfg)

    def test_training_reference_must_be_symbol(self):
        cfg = cfg_dd(mode="trained", training_len=3)
        with pytest.raises(InputError):
            dfe_step(initial_state(cfg), 0.5, 0.5, cfg)

    def test_decision_enters_feedback_line(self):
        cfg = cfg_dd(n_ff=2, n_fb=3)
        spec, st = run_spec(np.random.default_rng(1).normal(size=8), cfg)
        assert st.fb_line.tolist() == spec["decision"][-1:-4:-1].tolist()

    def test_decisions_are_symbols(self):
        cfg = cfg_dd(n_ff=4, n_fb=2, algo="ilms")
        spec, _ = run_spec(np.random.default_rng(2).normal(size=100), cfg)
        assert np.isin(spec["decision"], (-1.0, 1.0)).all()
        assert (spec["effective_step"] >= 0.0).all()

    def test_perfect_decision_is_fixed_point(self):
        for algo in ("lms", "ilms"):
            cfg = cfg_dd(n_ff=1, n_fb=0, algo=algo)
            st = DfeState(taps([1.0]), np.zeros(0), delay_line(1), delay_line(0), prev_error=0.3)
            trace, nxt = dfe_step(st, 1.0, None, cfg)
            assert trace.combiner_out == 1.0 and trace.error == 0.0
            assert nxt.ff_weights.tobytes() == st.ff_weights.tobytes()

    def test_trained_and_decision_directed_agree_on_correct_decisions(self):
        rng = np.random.default_rng(3)
        for algo in ("lms", "ilms"):
            dd = DfeConfig(n_ff=4, n_fb=2, mu=0.07, algo=algo)
            tr = DfeConfig(n_ff=4, n_fb=2, mu=0.07, algo=algo, mode="trained", training_len=10)
            st = DfeState(
                rng.normal(size=4), rng.normal(size=2), rng.normal(size=4),
                np.sign(rng.normal(size=2)) + 0.0, prev_error=float(rng.normal()),
            )
            r = float(rng.normal())
            t_dd, s_dd = dfe_step(st, r, None, dd)
            true_symbol = t_dd.decision  # decision happens to be correct
            t_tr, s_tr = dfe_step(st, r, true_symbol, tr)
            assert t_dd.error == t_tr.error
            assert s_dd.ff_weights.tobytes() == s_tr.ff_weights.tobytes()
            assert s_dd.fb_weights.tobytes() == s_tr.fb_weights.tobytes()


class TestRunEqualizer:
    """Whole runs of one row through `equalize`."""

    def test_rejects_empty_input(self):
        with pytest.raises(InputError):
            equalize(np.array([])[None], cfg_dd())

    def test_trained_mode_needs_symbols(self):
        cfg = cfg_dd(mode="trained", training_len=4)
        with pytest.raises(InputError):
            equalize(np.ones((1, 10)), cfg)

    @pytest.mark.parametrize(
        "tx,what", [(np.ones((2, 10)), "one row per received row"), (np.ones((1, 1)), "too short")],
        ids=["rows", "short"],
    )
    def test_trained_mode_rejects_symbols_that_do_not_fit(self, tx, what):
        # delay 0: one symbol cannot cover a preamble of 4
        cfg = cfg_dd(mode="trained", training_len=4)
        with pytest.raises(InputError, match=what):
            equalize(np.ones((1, 10)), cfg, tx)

    def test_trained_references_are_delayed_symbols(self):
        # delay 2: reference stream is [pad, pad, tx0, tx1, ...] during training
        cfg = DfeConfig(n_ff=5, n_fb=0, mu=1e-9, mode="trained", training_len=6)
        tx = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
        (errors,), *_ = equalize(np.zeros((1, 6)), cfg, tx[None])
        # y stays ~0, so e = reference: +1 padding for 2 steps then -1
        np.testing.assert_allclose(errors, [1, 1, -1, -1, -1, -1], atol=1e-8)
        spec, _ = run_spec(np.zeros(6), cfg, tx)
        assert spec["error"].tolist() == [1.0, 1.0] + [-1.0] * 4

    def test_degenerate_linear_mode_matches_fir(self):
        # No feedback and a vanishing step: outputs equal the fixed FF filter.
        rng = np.random.default_rng(5)
        rx = rng.normal(size=200)
        cfg = DfeConfig(n_ff=7, n_fb=0, mu=1e-300, center_spike=True)
        expected = np.convolve(rx, initial_state(cfg).ff_weights)[: rx.size]
        np.testing.assert_allclose(run_spec(rx, cfg)[0]["combiner_out"], expected, atol=1e-12, rtol=0)


def _batch(rows, n, seed=6):
    rng = np.random.default_rng(seed)
    tx = np.where(rng.random((rows, n)) < 0.5, 1.0, -1.0)
    rx = np.stack([np.convolve(t, [0.84, 0.543])[:n] for t in tx])
    return rx + 0.1 * rng.normal(size=rx.shape), tx


N_ORACLE = 240


def _assert_matches_spec(cfg, rx, tx):
    """`equalize` of the rows `rx` (and their symbols `tx`) gives, row by
    row, bit for bit what stepping the row through `dfe_step` gives: the
    signed errors, the steps, the decisions and the final state."""
    errors, dec, W, B = equalize(rx, cfg, tx)
    assert errors.shape == dec.shape == rx.shape
    assert W.shape == (len(rx), cfg.n_ff) and B.shape == (len(rx), cfg.n_fb)
    steps = effective_steps(errors, cfg)
    for s in range(rx.shape[0]):
        want, final = run_spec(rx[s], cfg, None if tx is None else tx[s])
        assert errors[s].tobytes() == want["error"].tobytes()
        assert steps[s].tobytes() == want["effective_step"].tobytes()
        assert dec[s].tobytes() == want["decision"].tobytes()
        assert W[s].tobytes() == final.ff_weights.tobytes()
        assert B[s].tobytes() == final.fb_weights.tobytes()
        # The final lines hold the newest samples and decisions, newest first,
        # and zeros where a line is longer than the row.
        assert final.ff_line.tobytes() == _newest_first(rx[s], cfg.n_ff).tobytes()
        assert final.fb_line.tobytes() == _newest_first(dec[s], cfg.n_fb).tobytes()


def _newest_first(row, k):
    """The last `k` values of `row`, newest first, padded with zeros to `k`."""
    return np.concatenate([row[::-1], np.zeros(k)])[:k]


# A trained `ilms` setting whose rows diverge on `_batch(4, 200, seed=8)`.
_DIVERGING = dict(n_ff=11, n_fb=5, mu=0.2, algo="ilms", mode=MODE_TRAINED, training_len=500)


def _assert_divergence_returned(cfg, seed, raises=True):
    """Several rows of a batch fail, at different steps: `equalize` returns,
    and each row's errors are, bit for bit, those of stepping it through
    `dfe_step` before the step where that raises, and non-finite from it
    on.  With `raises` false no row raises: every error is finite, but the
    squares of some overflow."""
    rx, tx = _batch(4, 200, seed=seed)
    errors = equalize(rx, cfg, tx)[0]
    raised, failed = [], []
    with np.errstate(invalid="ignore", over="ignore"):
        for s in range(4):
            spec = []
            try:
                for trace, _ in step_through(rx[s], cfg, tx[s]):
                    spec.append(trace.error)
            except InputError:
                raised.append(s)
            done = len(spec)
            assert errors[s, :done].tobytes() == np.array(spec).tobytes()
            assert not np.isfinite(errors[s, done:]).any()
            bad = ~np.isfinite(errors[s] * errors[s])
            if bad.any():
                failed.append(int(bad.argmax()))
    assert len(raised) == (len(failed) if raises else 0)  # every failing row raises, or none
    # The rows fail at different steps: each row's run is its own.
    assert len(set(failed)) > 1


class TestEqualizeOracle:
    """`equalize` must reproduce the `dfe_step` loop bit for bit, row by row.

    These cases run the numpy loop; `TestEqualizeOracleC` runs them all again
    in the compiled kernel.
    """

    KERNEL = "numpy"

    @pytest.fixture(autouse=True)
    def kernel(self, use_kernel):
        use_kernel(self.KERNEL)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize(
        "shape",
        [dict(n_fb=5), dict(n_fb=0), dict(n_fb=3, step_floor=0.01, step_cap=0.05)],
        ids=["fb5", "fb0", "floor-cap"],
    )
    @pytest.mark.parametrize("spike", [False, True], ids=["zero", "spike"])
    @pytest.mark.parametrize(
        "training",
        [None, 150, 2, N_ORACLE + 50],  # dd; trained; shorter than the delay; longer than N
        ids=["dd", "trained", "train-lt-delay", "train-gt-n"],
    )
    @pytest.mark.parametrize("algo", ["lms", "ilms"], ids=_RULE_IDS)
    def test_matches_step_loop(self, algo, training, spike, shape, rows):
        mode = {} if training is None else dict(mode=MODE_TRAINED, training_len=training)
        cfg = DfeConfig(n_ff=11, mu=0.03, algo=algo, center_spike=spike, **mode, **shape)
        _assert_matches_spec(cfg, *_batch(rows, N_ORACLE))

    @pytest.mark.parametrize("case", ["white-noise", "default-lms", "default-ilms", "numpy-scalars"])
    def test_matches_step_loop_on(self, case):
        # A row of white noise through a small dd `ilms`; the default config
        # at its full length on the input of seed 1 of the default run; and
        # an `ilms` built from numpy scalars, which runs as its Python twin.
        if case == "white-noise":
            cfg = DfeConfig(n_ff=5, n_fb=3, mu=0.05, algo="ilms", center_spike=True)
            _assert_matches_spec(cfg, np.random.default_rng(4).normal(size=(1, 50)), None)
        elif case == "numpy-scalars":
            f32 = np.float32
            steps = dict(mu=f32(0.03), step_floor=f32(0.01), step_cap=f32(0.05))
            _assert_matches_spec(DfeConfig(n_ff=11, n_fb=np.int8(3), algo="ilms", **steps), *_batch(3, N_ORACLE))
        else:
            config = ExperimentConfig()
            tx, rx = draw(config, [1])
            _assert_matches_spec(config.dfe_config(case.split("-")[1]), rx, tx)

    @pytest.mark.parametrize("n", [1, 6, 10, 11])
    @pytest.mark.parametrize("algo", ["lms", "ilms"], ids=_RULE_IDS)
    def test_rows_shorter_than_the_ff_filter_match_step_loop(self, algo, n):
        # Every step of a row shorter than the FF filter reads taps from
        # before its first sample, which hold 0.0.
        cfg = DfeConfig(n_ff=11, n_fb=5, mu=0.03, algo=algo, mode=MODE_TRAINED, training_len=4, center_spike=True)
        _assert_matches_spec(cfg, *_batch(3, n))

    def test_leaves_received_unchanged(self):
        rx, tx = _batch(3, N_ORACLE)
        before = rx.tobytes()
        equalize(rx, DfeConfig(n_ff=11, n_fb=5, mu=0.03, algo="ilms", mode=MODE_TRAINED, training_len=50), tx)
        assert rx.tobytes() == before

    @pytest.mark.parametrize("layout", ["fortran", "strided", "reversed-rows"])
    def test_any_layout_gives_the_bytes_of_its_contiguous_copy(self, layout):
        rx, tx = _batch(3, N_ORACLE)
        given = {
            "fortran": np.asfortranarray(rx),
            "strided": np.repeat(rx, 2, axis=1)[:, ::2],
            "reversed-rows": rx[::-1],
        }[layout]
        assert not given.flags.c_contiguous
        cfg = DfeConfig(n_ff=11, n_fb=5, mu=0.03, algo="ilms", center_spike=True)
        got = equalize(given, cfg)
        want = equalize(np.ascontiguousarray(given), cfg)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("algo", ["lms", "ilms"], ids=_RULE_IDS)
    def test_rows_are_independent(self, algo):
        cfg = DfeConfig(n_ff=7, n_fb=3, mu=0.03, algo=algo, mode=MODE_TRAINED, training_len=40)
        rx, tx = _batch(5, 300, seed=7)
        batch = equalize(rx, cfg, tx)
        for s in range(5):
            alone = equalize(rx[s : s + 1], cfg, tx[s : s + 1])
            assert [a[s].tobytes() for a in batch] == [a[0].tobytes() for a in alone]

    # A diverging row is returned, not raised: its errors show each row's
    # failing iteration, from which `run_experiment` names the failed run.
    def test_divergence_names_first_row_and_iteration(self):
        _assert_divergence_returned(DfeConfig(**_DIVERGING), seed=8)

    def test_floor_cap_divergence_names_first_row_and_iteration(self):
        # Diverging with both the floor and the cap set: each kernel turns
        # non-finite at the step where the `dfe_step` loop raises.
        cfg = DfeConfig(**_DIVERGING, step_floor=0.01, step_cap=50.0)
        _assert_divergence_returned(cfg, seed=8)

    def test_squared_error_overflow_names_first_row_and_iteration(self):
        # A tighter cap keeps every error finite for 200 steps, but the errors
        # still grow past sqrt(max float), so their squares overflow.
        cfg = DfeConfig(**_DIVERGING, step_floor=0.01, step_cap=5.0)
        _assert_divergence_returned(cfg, seed=0, raises=False)

    def test_rejects_non_finite_sample(self):
        rx = np.zeros((3, 20))
        rx[2, 4] = np.inf
        rx[1, 9] = np.nan
        with pytest.raises(InputError) as exc:
            equalize(rx, cfg_dd())
        assert exc.value.row == 1 and str(exc.value).endswith("at iteration 9")

    def test_rejects_bad_training_reference(self):
        cfg = cfg_dd(mode=MODE_TRAINED, training_len=5, decision_delay=0)
        tx = np.ones((2, 10))
        tx[1, 3] = 0.5
        with pytest.raises(InputError) as exc:
            equalize(np.zeros((2, 10)), cfg, tx)
        assert exc.value.row == 1 and str(exc.value).endswith("at iteration 3")

    def test_rejects_one_dimensional_batch(self):
        with pytest.raises(InputError):
            equalize(np.zeros(10), cfg_dd())


class TestEqualizeOracleC(TestEqualizeOracle):
    KERNEL = "c"


class TestKernelChoice:
    """The compiled kernel is used only when it builds, links and passes all
    three probes; otherwise a run takes the numpy loop, numpy.random and the
    Python CSV writer, and gives the same bytes."""

    CFG = DfeConfig(n_ff=11, n_fb=5, mu=0.03, algo="ilms", center_spike=True, step_cap=0.05)

    def _run(self):
        """What a run computes: the equalizer's outputs and final weights, and
        the symbols and noise it equalizes."""
        rx, _ = _batch(3, N_ORACLE, seed=9)
        out = list(equalize(rx, self.CFG))
        for seed in (0, 2**32, 2**200 + 7):
            for n in (1, 3, 301):
                out += [generate_bpsk(n, seed), gaussian(n, 0.3, seed)]
        return [a.tobytes() for a in out]

    # Edits of the C source that build a kernel whose loop or draws are one
    # ulp off the twins', as a loop that summed in another order would be,
    # whose CSV writer rounds a tie of the 17th digit half up, not half to
    # even, or whose seed expansion differs from SeedSequence's on long seeds only.
    _SKEWED = {
        "probe-mismatch": ("e_row[i] = e;", "e_row[i] = nextafter(e, INFINITY);"),
        "draw-probe-mismatch": (
            "out[k] = (double)(x >> 11) * (1.0 / 9007199254740992.0);",
            "out[k] = nextafter((double)(x >> 11) * (1.0 / 9007199254740992.0), 1.0);",
        ),
        "csv-probe-mismatch": ("if (rest > half || (rest == half && (lo || (n & 1))))", "if (rest >= half)"),
        # Only a seed of more than four 32-bit words runs this loop.
        "seed-probe-mismatch": (
            "for (int64_t src = 4; src < n_words; src++)", "for (int64_t src = 5; src < n_words; src++)"
        ),
    }

    @pytest.mark.parametrize(
        "failure",
        [
            "no-compiler", "compiler-fails",
            "probe-mismatch", "draw-probe-mismatch", "csv-probe-mismatch", "seed-probe-mismatch",
        ],
    )
    def test_falls_back_to_numpy(self, monkeypatch, tmp_path, capfd, fresh_load, failure):
        want = self._run()  # as shipped: the kernel if it loads here
        _kernel.load.cache_clear()
        monkeypatch.setattr(_kernel, "CACHE", tmp_path)  # nothing cached: a load must build
        if failure == "no-compiler":
            monkeypatch.setattr(_kernel, "CC", "no-such-compiler")
        elif failure == "compiler-fails":
            monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "--no-such-flag"))
        else:
            if shutil.which(_kernel.CC) is None:
                pytest.skip("no C compiler here")
            old, new = self._SKEWED[failure]
            source = _kernel.SOURCE.read_text()
            assert source.count(old) == 1
            (tmp_path / "_kernel.c").write_text(source.replace(old, new))
            monkeypatch.setattr(_kernel, "SOURCE", tmp_path / "_kernel.c")
        drawn, pcg64 = [], np.random.PCG64

        def counted_pcg64(seed):
            drawn.append(seed)
            return pcg64(seed)

        monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
        assert _kernel.load().name == dfe.KERNEL == "numpy"
        assert self._run() == want
        assert drawn  # numpy.random drew the symbols and the noise
        assert capfd.readouterr().err == ""

    def test_compiled_kernel_is_used_when_it_passes_the_probe(self, monkeypatch, fresh_load, compiled):
        def no_numpy_random(seed):
            raise AssertionError("numpy.random drew")

        monkeypatch.setattr(np.random, "PCG64", no_numpy_random)
        assert dfe.KERNEL == "c"
        assert _kernel.load().lockstep is compiled.lockstep
        generate_bpsk(10, 3)
        assert _kernel.load.cache_info().misses == 1  # chosen once, for the loop and the draws

    @pytest.mark.parametrize("bad", ["float32", "non-contiguous"])
    def test_compiled_loop_rejects_other_buffers(self, compiled, bad):
        # The kernel reads raw C-ordered float64 memory: any other buffer of
        # rx, H, D, W, B or E is refused before the C code runs.
        rows, n, n_ff, n_fb, train = 2, 20, 5, 3, 4
        shapes = [(rows, n), (rows, 2 * n_ff - 1), (rows, n_fb + n), (rows, n_ff), (rows, n_fb), (rows, n)]
        for k, (r, c) in enumerate(shapes):
            bufs = [np.ones(shape) for shape in shapes]
            bufs[k] = np.ones((r, c), np.float32) if bad == "float32" else np.ones((r, 2 * c))[:, ::2]
            before = [b.tobytes() for b in bufs]
            with pytest.raises(ValueError, match="C-contiguous float64"):
                compiled.lockstep(*bufs, train, 0.01, True, 0.0, math.inf)
            assert [b.tobytes() for b in bufs] == before

    def test_cached_library_loads_without_a_compiler(self, monkeypatch, fresh_load, compiled):
        monkeypatch.setattr(_kernel, "CC", "no-such-compiler")
        _kernel.load.cache_clear()
        assert _kernel.load().name == "c"

    def test_cached_library_loads_without_subprocess(self, compiled, child_env):
        # Only a build runs the compiler; a process that finds the library
        # cached never imports subprocess.
        code = "import sys\nimport equalab.dfe as dfe\nprint(dfe.KERNEL, 'subprocess' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, check=True
        )
        assert out.stdout.split() == ["c", "False"]

    @pytest.mark.parametrize(
        "limits", [{}, dict(step_floor=0.01, step_cap=50.0)], ids=["plain", "floor-cap"]
    )
    def test_loops_leave_identical_buffers_on_diverging_rows(self, compiled, limits):
        # Past a row's first non-finite error both loops carry the inf/nan on
        # alike: the kernel's floor and cap let a NaN through as numpy's do.
        cfg = DfeConfig(**_DIVERGING, **limits)
        rx, tx = _batch(4, 200, seed=8)
        with np.errstate(all="ignore"):
            got = dfe._lockstep(compiled.lockstep, rx, cfg, tx)
            want = dfe._lockstep(_kernel._numpy_loop, rx, cfg, tx)
        assert not np.isfinite(want[3]).all()
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_loops_agree_on_rows_that_diverge_before_the_ff_line_fills(self, compiled):
        # The weights turn infinite at the second step, while most FF taps
        # still read the 0.0 before the first sample: both loops form
        # inf * 0.0, a NaN, on those taps.  The signs of the NaNs in W differ
        # between the loops here, so W is compared by value.
        cfg = DfeConfig(n_ff=37, n_fb=5, mu=0.5, algo="ilms")
        rx = np.full((2, 20), 1e300)
        rx[1] *= -1.0
        with np.errstate(all="ignore"):
            got = dfe._lockstep(compiled.lockstep, rx, cfg, None)
            want = dfe._lockstep(_kernel._numpy_loop, rx, cfg, None)
        assert np.isnan(want[1]).any() and not np.isfinite(want[3]).all()
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
        assert [got[k].tobytes() for k in (0, 2, 3)] == [want[k].tobytes() for k in (0, 2, 3)]

    def test_concurrent_builds_leave_one_library(self, monkeypatch, tmp_path):
        # Processes may build at once: each writes its own temporary file
        # and renames it into place, so every builder gets a whole library.
        if shutil.which(_kernel.CC) is None:
            pytest.skip("no C compiler here")
        monkeypatch.setattr(_kernel, "CACHE", tmp_path / "__pycache__")
        paths, errors = [], []

        def build():
            try:
                paths.append(_kernel._build())
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(set(paths)) == 1 and paths[0].parent == tmp_path / "__pycache__"
        # Only the library itself is left: no temporary or object file.
        assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == [paths[0].name]
        assert [p.name for p in tmp_path.iterdir()] == ["__pycache__"]

    def test_build_removes_stale_libraries(self, monkeypatch, tmp_path):
        # The library of an earlier source goes when a new one is built; the
        # temporary file of a build in flight elsewhere and Python's own
        # bytecode stay.
        if shutil.which(_kernel.CC) is None:
            pytest.skip("no C compiler here")
        monkeypatch.setattr(_kernel, "CACHE", tmp_path)
        kept = ["_kernel-inflight.tmp", "dfe.cpython-311.pyc"]
        for name in ["_kernel-0123456789abcdef.so", *kept]:
            (tmp_path / name).write_bytes(b"")
        lib = _kernel._build()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([lib.name, *kept])

    def test_cache_name_follows_source_flags_and_machine(self, monkeypatch, tmp_path):
        # The library is named by 64 bits of checksum over the source, the
        # machine and the flags: a change to any one of them gives a new name.
        name = _kernel._library().name
        assert len(name) == len("_kernel-.so") + 16
        source = _kernel.SOURCE.read_bytes()
        copy = tmp_path / "_kernel.c"
        monkeypatch.setattr(_kernel, "SOURCE", copy)

        def named(text=source, flags=_kernel.FLAGS, machine=_kernel.platform.machine()):
            copy.write_bytes(text)
            monkeypatch.setattr(_kernel, "FLAGS", flags)
            monkeypatch.setattr(_kernel.platform, "machine", lambda: machine)
            return _kernel._library().name

        assert named() == name
        changed = {named(text=source + b"\n"), named(flags=(*_kernel.FLAGS, "-g")), named(machine="other")}
        assert len(changed) == 3 and name not in changed
        assert named() == name

    def test_source_ships_as_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        source = importlib.resources.files("equalab").joinpath("_kernel.c").read_text()
        for name in ("void equalab_lockstep(", "void equalab_uniform(", "int64_t equalab_rows("):
            assert name in source
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        assert "_kernel.c" in pyproject["tool"]["setuptools"]["package-data"]["equalab"]
