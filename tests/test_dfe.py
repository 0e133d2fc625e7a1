"""Equalizer state-machine tests: quantizer, output y, error, stepping, invariants."""

import importlib.resources
import math
import os
import shutil
import subprocess
import sys
import threading
import tomllib
from pathlib import Path

import numpy as np
import pytest

from equalab import (
    ConfigurationError,
    DfeConfig,
    DfeState,
    InputError,
    delay_line,
    dfe_step,
    equalize,
    gaussian,
    generate_bpsk,
    initial_state,
    quantize,
    taps,
)
from equalab import _kernel, dfe
from equalab.dfe import MODE_TRAINED, PAD_SYMBOL


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
        st = initial_state(cfg)
        decisions = []
        rng = np.random.default_rng(1)
        for r in rng.normal(size=8):
            trace, st = dfe_step(st, float(r), None, cfg)
            decisions.append(trace.decision)
        assert st.fb_line.tolist() == decisions[-1:-4:-1]

    def test_decisions_are_symbols(self):
        cfg = cfg_dd(n_ff=4, n_fb=2, algo="ilms")
        st = initial_state(cfg)
        rng = np.random.default_rng(2)
        for r in rng.normal(size=100):
            trace, st = dfe_step(st, float(r), None, cfg)
            assert trace.decision in (-1.0, 1.0)
            assert trace.effective_step >= 0.0

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

    def test_matches_manual_stepping(self):
        cfg = DfeConfig(n_ff=5, n_fb=3, mu=0.05, algo="ilms", center_spike=True)
        rng = np.random.default_rng(4)
        rx = rng.normal(size=50)
        (sq_errors,), (decisions,) = equalize(rx[None], cfg)
        st = initial_state(cfg)
        for i, r in enumerate(rx):
            trace, st = dfe_step(st, float(r), None, cfg)
            assert sq_errors[i] == trace.error * trace.error
            assert decisions[i] == trace.decision

    def test_trained_references_are_delayed_symbols(self):
        # delay 2: reference stream is [pad, pad, tx0, tx1, ...] during training
        cfg = DfeConfig(n_ff=5, n_fb=0, mu=1e-9, mode="trained", training_len=6)
        tx = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
        (sq_errors,), _ = equalize(np.zeros((1, 6)), cfg, tx[None])
        # y stays ~0, so e = reference: +1 padding for 2 steps then -1
        np.testing.assert_allclose(
            np.sqrt(sq_errors), [1, 1, 1, 1, 1, 1], atol=1e-8
        )
        st = initial_state(cfg)
        refs = []
        for i, r in enumerate(np.zeros(6)):
            ts = tx[i - 2] if i >= 2 else 1.0
            trace, st = dfe_step(st, float(r), ts if i < 6 else None, cfg)
            refs.append(trace.error)
        assert refs[:2] == [1.0, 1.0] and refs[2:] == [-1.0] * 4

    def test_degenerate_linear_mode_matches_fir(self):
        # No feedback and a vanishing step: outputs equal the fixed FF filter.
        rng = np.random.default_rng(5)
        rx = rng.normal(size=200)
        cfg = DfeConfig(n_ff=7, n_fb=0, mu=1e-300, center_spike=True)
        st = initial_state(cfg)
        w0 = st.ff_weights.copy()
        outs = np.empty(rx.size)
        for i, r in enumerate(rx):
            trace, st = dfe_step(st, float(r), None, cfg)
            outs[i] = trace.combiner_out
        expected = np.convolve(rx, w0)[: rx.size]
        np.testing.assert_allclose(outs, expected, atol=1e-12, rtol=0)


def _step_loop(rx, tx, cfg):
    """The executable spec: one row stepped through `dfe_step`."""
    st = initial_state(cfg)
    train = cfg.training_len if cfg.mode == MODE_TRAINED else 0
    sq = np.empty(rx.size)
    dec = np.empty(rx.size)
    for i, r in enumerate(rx):
        ts = None
        if i < train:
            ts = tx[i - cfg.delay] if i >= cfg.delay else PAD_SYMBOL
        trace, st = dfe_step(st, float(r), ts, cfg)
        sq[i] = trace.error * trace.error
        dec[i] = trace.decision
    return sq, dec, st


def _batch(rows, n, seed=6):
    rng = np.random.default_rng(seed)
    tx = np.where(rng.random((rows, n)) < 0.5, 1.0, -1.0)
    rx = np.stack([np.convolve(t, [0.84, 0.543])[:n] for t in tx])
    return rx + 0.1 * rng.normal(size=rx.shape), tx


N_ORACLE = 240


# A trained `ilms` setting whose rows diverge on `_batch(4, 200, seed=8)`.
_DIVERGING = dict(n_ff=11, n_fb=5, mu=0.2, algo="ilms", mode=MODE_TRAINED, training_len=500)


def _assert_divergence_reported(cfg, seed, what="non-finite quantizer input"):
    """Several rows of a batch diverge: `equalize` names the first row to
    fail, its iteration and `what` failed, as stepping each row through
    `dfe_step` finds.  A non-finite combiner output in any row comes before
    a squared error that overflows."""
    rx, tx = _batch(4, 200, seed=seed)
    raised, overflowed = [], []
    with np.errstate(invalid="ignore", over="ignore"):
        for s in range(4):
            st = initial_state(cfg)
            first_overflow = None
            for i, r in enumerate(rx[s]):
                ts = tx[s, i - cfg.delay] if i >= cfg.delay else PAD_SYMBOL
                try:
                    trace, st = dfe_step(st, float(r), ts, cfg)
                except InputError:
                    raised.append((s, i))
                    break
                if first_overflow is None and not math.isfinite(trace.error * trace.error):
                    first_overflow = i
            if first_overflow is not None:
                overflowed.append((s, first_overflow))
    failures = raised or overflowed
    # The first row to fail is not the one that fails earliest.
    assert len(failures) > 1 and failures[0][1] > min(i for _, i in failures)
    with pytest.raises(InputError) as exc:
        equalize(rx, cfg, tx)
    assert exc.value.row == failures[0][0]
    assert str(exc.value).endswith(f"{what} at iteration {failures[0][1]}")


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
        rx, tx = _batch(rows, N_ORACLE)
        sq, dec = equalize(rx, cfg, tx)
        assert sq.shape == dec.shape == (rows, N_ORACLE)
        # The final state lives in the loop's buffers: the weights in W and B,
        # the newest-first lines at the front of R and D, e(N-1) last in E.
        R, D, W, B, E = dfe._lockstep(dfe._loop(), rx, cfg, tx)
        for s in range(rows):
            want_sq, want_dec, want = _step_loop(rx[s], tx[s], cfg)
            assert sq[s].tobytes() == want_sq.tobytes()
            assert dec[s].tobytes() == want_dec.tobytes()
            assert W[s].tobytes() == want.ff_weights.tobytes()
            assert B[s].tobytes() == want.fb_weights.tobytes()
            assert R[s, : cfg.n_ff].tobytes() == want.ff_line.tobytes()
            assert D[s, : cfg.n_fb].tobytes() == want.fb_line.tobytes()
            assert (E[s, -1], E.shape[1]) == (want.prev_error, want.iteration)

    @pytest.mark.parametrize("algo", ["lms", "ilms"], ids=_RULE_IDS)
    def test_rows_are_independent(self, algo):
        cfg = DfeConfig(n_ff=7, n_fb=3, mu=0.03, algo=algo, mode=MODE_TRAINED, training_len=40)
        rx, tx = _batch(5, 300, seed=7)
        sq, dec = equalize(rx, cfg, tx)
        for s in range(5):
            alone_sq, alone_dec = equalize(rx[s : s + 1], cfg, tx[s : s + 1])
            assert sq[s].tobytes() == alone_sq[0].tobytes()
            assert dec[s].tobytes() == alone_dec[0].tobytes()

    def test_divergence_names_first_row_and_iteration(self):
        _assert_divergence_reported(DfeConfig(**_DIVERGING), seed=8)

    def test_floor_cap_divergence_names_first_row_and_iteration(self):
        # Diverging with both the floor and the cap set: each kernel names the
        # row and iteration that the `dfe_step` loop names.
        cfg = DfeConfig(**_DIVERGING, step_floor=0.01, step_cap=50.0)
        _assert_divergence_reported(cfg, seed=8)

    def test_squared_error_overflow_names_first_row_and_iteration(self):
        # A tighter cap keeps every error finite for 200 steps, but the errors
        # still grow past sqrt(max float), so their squares overflow.
        cfg = DfeConfig(**_DIVERGING, step_floor=0.01, step_cap=5.0)
        _assert_divergence_reported(cfg, seed=0, what="squared error overflows")

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
    """The compiled kernel is used only when it builds, links and passes both
    probes; otherwise a run takes the numpy loop and numpy.random, and gives
    the same bytes."""

    CFG = DfeConfig(n_ff=11, n_fb=5, mu=0.03, algo="ilms", center_spike=True, step_cap=0.05)

    def _run(self):
        """What a run computes: the equalizer's outputs and final weights, and
        the symbols and noise it equalizes."""
        rx, _ = _batch(3, N_ORACLE, seed=9)
        sq, dec = equalize(rx, self.CFG)
        W = dfe._lockstep(dfe._loop(), rx, self.CFG, None)[2]
        out = [sq, dec, *W]
        for seed in (0, 2**32, 2**200 + 7):
            for n in (1, 3, 301):
                out += [generate_bpsk(n, seed), gaussian(n, 0.3, seed)]
        return [a.tobytes() for a in out]

    # Edits of the C source that build a kernel whose loop or draws are one
    # ulp off numpy's, as with a numpy built against another BLAS.
    _SKEWED = {
        "probe-mismatch": ("e_row[i] = e;", "e_row[i] = nextafter(e, INFINITY);"),
        "draw-probe-mismatch": (
            "out[k] = (double)(x >> 11) * (1.0 / 9007199254740992.0);",
            "out[k] = nextafter((double)(x >> 11) * (1.0 / 9007199254740992.0), 1.0);",
        ),
    }

    @pytest.mark.parametrize(
        "failure", ["no-compiler", "compiler-fails", "no-ddot", "probe-mismatch", "draw-probe-mismatch"]
    )
    def test_falls_back_to_numpy(self, monkeypatch, tmp_path, capfd, fresh_load, failure):
        want = self._run()  # as shipped: the kernel if it loads here
        _kernel.load.cache_clear()
        monkeypatch.setattr(_kernel, "CACHE", tmp_path)  # nothing cached: a load must build
        if failure == "no-compiler":
            monkeypatch.setattr(_kernel, "CC", "no-such-compiler")
        elif failure == "compiler-fails":
            monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "--no-such-flag"))
        elif failure == "no-ddot":
            monkeypatch.setattr(_kernel, "DDOT_SYMBOLS", ("no_such_ddot",))
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
        assert _kernel.load() is None
        assert dfe.KERNEL == "numpy"
        assert self._run() == want
        assert drawn  # numpy.random drew the symbols and the noise
        assert capfd.readouterr().err == ""

    def test_compiled_kernel_is_used_when_it_passes_the_probe(self, monkeypatch, fresh_load, compiled):
        def no_numpy_random(seed):
            raise AssertionError("numpy.random drew")

        monkeypatch.setattr(np.random, "PCG64", no_numpy_random)
        assert dfe.KERNEL == "c"
        assert dfe._loop() is compiled[0]
        generate_bpsk(10, 3)
        assert _kernel.load.cache_info().misses == 1  # chosen once, for the loop and the draws

    @pytest.mark.parametrize("bad", ["float32", "non-contiguous"])
    def test_compiled_loop_rejects_other_buffers(self, compiled, bad):
        # The kernel reads raw C-ordered float64 memory: any other buffer of
        # R, D, W, B, E or refs is refused before the C code runs.
        rows, n, n_ff, n_fb, train = 2, 20, 5, 3, 4
        shapes = [(rows, n + n_ff - 1), (rows, n + n_fb), (rows, n_ff), (rows, n_fb), (rows, n), (train, rows)]
        for k, (r, c) in enumerate(shapes):
            bufs = [np.ones(shape) for shape in shapes]
            bufs[k] = np.ones((r, c), np.float32) if bad == "float32" else np.ones((r, 2 * c))[:, ::2]
            before = [b.tobytes() for b in bufs]
            with pytest.raises(ValueError, match="C-contiguous float64"):
                compiled[0](*bufs, 0.01, True, 0.0, math.inf)
            assert [b.tobytes() for b in bufs] == before

    def test_cached_library_loads_without_a_compiler(self, monkeypatch, fresh_load, compiled):
        monkeypatch.setattr(_kernel, "CC", "no-such-compiler")
        _kernel.load.cache_clear()
        assert _kernel.load() is not None

    def test_cached_library_loads_without_subprocess(self, compiled):
        # Only a build runs the compiler; a process that finds the library
        # cached never imports subprocess.
        code = "import sys\nimport equalab.dfe as dfe\nprint(dfe.KERNEL, 'subprocess' in sys.modules)"
        src = os.path.dirname(os.path.dirname(dfe.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
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
            got = dfe._lockstep(compiled[0], rx, cfg, tx)
            want = dfe._lockstep(dfe._numpy_loop, rx, cfg, tx)
        assert not np.isfinite(want[4]).all()
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

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
        source = importlib.resources.files("equalab").joinpath("_kernel.c").read_text()
        assert "void equalab_lockstep(" in source and "void equalab_uniform(" in source
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        assert "_kernel.c" in pyproject["tool"]["setuptools"]["package-data"]["equalab"]
