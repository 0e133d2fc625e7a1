"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 1 and 2 share a single run of the default experiment configuration,
and hold at its horizon of 5000 symbols.  Criterion 1 reads the step `ilms`
settles to from that run's `settled_step` column, the mean over seeds of each
seed's mean step over the final `tail_frac` of its run, and adds one `lms`
run at that fixed step, which reaches the same steady-state error.  The speed
claim is tested against that matched `lms` run.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from equalab import DfeConfig, experiment, generate_bpsk, smooth, speedup, steady_state_mse, taps
from equalab.adapt import AdaptParams, effective_step, lms_update
from equalab.dfe import DfeState, dfe_step
from equalab.dsp import dot, shift_in
from equalab.metrics import ber, convergence_iteration
from equalab.experiment import (
    ExperimentConfig,
    emit_curves_csv,
    emit_summary,
    run_experiment,
)

PAPER_SPEEDUP_CLAIM = 6.2  # reported as "up to 6.2 times faster"
PAPER_MSE_RATIO = 5.6 / 2.3  # Table-style ratio, normalization unknown


@pytest.fixture(scope="module")
def default_run():
    config = ExperimentConfig()
    t0 = time.perf_counter()
    record = run_experiment(config)
    elapsed = time.perf_counter() - t0
    return record, elapsed


def test_criterion_1_convergence_speed_ordering(default_run):
    record, elapsed = default_run
    config = record.config
    conv_lms = record.curves["lms"].convergence_iter
    conv_ilms = record.curves["ilms"].convergence_iter
    ratio = record.speedup
    print(
        f"\ncriterion 1: equal mu={config.mu}: conv(lms)={conv_lms}, conv(ilms)={conv_ilms}, "
        f"speedup={ratio if ratio is None else round(ratio, 3)}, "
        f"runtime {elapsed:.1f}s (budget 30s)"
    )
    assert elapsed < 30.0
    assert conv_lms is not None and conv_ilms is not None

    # At equal mu the ilms step settles far below mu, so equal-mu lms is a
    # faster rule with a higher floor.  The claim is tested against lms run
    # at the step ilms settles to, which reaches the same floor.
    mu_matched = float(np.mean(record.seeds["ilms"].settled_step))
    matched = run_experiment(replace(config, mu=mu_matched, algos=("lms",))).curves["lms"]
    floor_lms = matched.steady_state_mse
    floor_ilms = record.curves["ilms"].steady_state_mse
    conv_matched = matched.convergence_iter
    matched_ratio = speedup(conv_matched, conv_ilms)
    print(
        f"criterion 1: matched mu={mu_matched:.6g}: floor(lms)={floor_lms:.6g}, "
        f"floor(ilms)={floor_ilms:.6g}, conv(lms)={conv_matched}, conv(ilms)={conv_ilms}, "
        f"speedup={matched_ratio if matched_ratio is None else round(matched_ratio, 3)} "
        f"(required >= 1.5; paper reports up to {PAPER_SPEEDUP_CLAIM})"
    )
    matched_floor = floor_ilms <= floor_lms <= 1.02 * floor_ilms
    outcome = "PASS" if (matched_floor and matched_ratio is not None and matched_ratio >= 1.5) else "FAIL"
    print(f"criterion 1 convergence-speed ordering: {outcome}")
    assert matched_floor, "fixed-step lms at mu_matched does not reach the ilms floor within 2%"
    assert conv_matched is not None and conv_ilms < conv_matched, (
        "variable-step rule did not reach its own steady-state band earlier"
    )
    assert matched_ratio >= 1.5


def test_criterion_2_steady_state_ordering(default_run):
    record, _ = default_run
    st_lms = record.curves["lms"].steady_state_mse
    st_ilms = record.curves["ilms"].steady_state_mse
    measured_ratio = st_lms / st_ilms
    print(
        f"\ncriterion 2: steady-state MSE lms={st_lms:.6g}, ilms={st_ilms:.6g}, "
        f"ratio={measured_ratio:.3f} (paper table ratio ~{PAPER_MSE_RATIO:.2f}, "
        "normalization unknown; only the ordering is asserted)"
    )
    assert st_ilms <= st_lms
    print("criterion 2 steady-state ordering: PASS")


def test_criterion_3_fir_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 17))
        N = int(rng.integers(1, 257))
        w = taps(rng.normal(size=L))
        x = rng.normal(size=N)
        line = np.zeros(L)
        streamed = np.empty(N)
        for i in range(N):
            line = shift_in(line, x[i])
            streamed[i] = dot(w, line)
        worst = max(worst, float(np.max(np.abs(streamed - np.convolve(x, w)[:N]))))
    print(f"\ncriterion 3: 100 randomized streaming-vs-convolution cases, "
          f"max |dev| = {worst:.3g} (tolerance 1e-12)")
    assert worst <= 1e-12
    print("criterion 3 FIR oracle equivalence: PASS")


def test_criterion_4_hand_computed_lms_step():
    w = np.zeros(2)
    x = np.array([1.0, -1.0])
    updated = lms_update(w, x, 1.0, 0.1)
    assert updated.tolist() == [0.1, -0.1]
    # One `dfe_step` of each rule on those weights: shifting 1.0 into the FF
    # line [-1, *] makes x the regressor; y = 0, decision +1, so e = 1.0, and
    # e(-1) = 0 gives `ilms` the step 0.1 * |1.0 - 0.0|.
    state = DfeState(w, np.zeros(0), np.array([-1.0, 9.0]), np.zeros(0), prev_error=0.0)
    conv, conv_next = dfe_step(state, 1.0, None, DfeConfig(n_ff=2, n_fb=0, mu=0.1))
    impr, impr_next = dfe_step(state, 1.0, None, DfeConfig(n_ff=2, n_fb=0, mu=0.1, algo="ilms"))
    assert conv.error == impr.error == 1.0
    ff_conv, ff_impr, step = conv_next.ff_weights, impr_next.ff_weights, impr.effective_step
    assert step == 0.1
    assert np.array_equal(ff_conv, ff_impr)
    assert ff_impr.tolist() == [0.1, -0.1]
    print("\ncriterion 4 hand-computed LMS step (exact, coincidence case): PASS")


def test_criterion_5_zero_error_fixed_point():
    # e = 0 through each rule's step: `lms` updates by mu, `ilms` by
    # effective_step(e = 0, e_prev); the FB regressor is negated as in `dfe_step`.
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n_ff = int(rng.integers(1, 12))
        n_fb = int(rng.integers(0, 8))
        ff_w = rng.normal(size=n_ff)
        ff_x = rng.normal(size=n_ff)
        fb_w = rng.normal(size=n_fb)
        fb_x = np.sign(rng.normal(size=n_fb)) + 0.0
        p = AdaptParams(float(rng.uniform(0.001, 0.5)))
        e_prev = float(rng.normal())
        for step in (p.mu, effective_step(p, 0.0, e_prev)):
            new_ff, new_fb = lms_update(ff_w, ff_x, 0.0, step), lms_update(fb_w, -fb_x, 0.0, step)
            assert new_ff.tobytes() == ff_w.tobytes() and new_fb.tobytes() == fb_w.tobytes()
    print("\ncriterion 5 zero-error fixed point (1000 fuzzed cases, bit-identical): PASS")


def test_criterion_6_noiseless_recovery():
    config = ExperimentConfig(
        channel=(0.407, 0.815, 0.407),
        snr_db=None,
        mode="trained",
        training_len=500,
        center_spike=False,
        n_seeds=3,
    )
    record = run_experiment(config)
    assert config.ber_skip == 1000  # final 80% of 5000 symbols
    print(
        f"\ncriterion 6: noiseless trained recovery, BER lms={record.ber['lms']}, "
        f"ilms={record.ber['ilms']}"
    )
    assert record.ber["lms"] == 0.0
    assert record.ber["ilms"] == 0.0
    print("criterion 6 noiseless recovery: PASS")


def test_criterion_7_byte_determinism(tmp_path, monkeypatch):
    outputs = []
    for tag, block_rows in (("a", None), ("b", None), ("c", 2)):
        if block_rows is not None:  # the 6 seeds as 3 blocks of 2 rows
            monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", block_rows * 800)
        config = ExperimentConfig(n_symbols=800, n_seeds=6, window=25)
        record = run_experiment(config)
        curves = tmp_path / f"{tag}.csv"
        summary = tmp_path / f"{tag}.txt"
        emit_curves_csv(record, curves)
        emit_summary(record, summary)
        outputs.append((curves.read_bytes(), summary.read_bytes()))
    assert outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    # blocks are folded in seed order, so the split cannot change a byte
    assert outputs[0][0] == outputs[2][0] and outputs[0][1] == outputs[2][1]
    print("\ncriterion 7 byte-identical outputs (one block x2 and 3 blocks of 2): PASS")


def test_criterion_8_metrics_unit_examples():
    # smoothing
    assert np.array_equal(smooth(np.array([7.0, 1.5, 0.25]), 1), [7.0, 1.5, 0.25])
    assert np.array_equal(smooth(np.full(6, 2.5), 3), np.full(4, 2.5))
    assert smooth(np.array([4.0, 0.0, 2.0]), 2).tolist() == [2.0, 1.0]
    # convergence scan
    assert convergence_iteration(np.array([9.0, 9.0, 1.0, 1.0, 1.0, 1.0]), 1.0, 2, 1.1) == 2
    assert convergence_iteration(np.array([5.0, 6.0, 7.0, 8.0]), 1.0, 2, 1.5) is None
    # steady state
    assert steady_state_mse(np.full(8, 3.25), 0.25) == 3.25
    assert steady_state_mse(np.array([4.0, 0.0, 2.0, 2.0]), 1.0) == 2.0
    assert steady_state_mse(np.array([4.0, 4.0, 0.0, 0.0]), 0.5) == 0.0
    # speedup
    assert speedup(620, 100) == pytest.approx(6.2, abs=1e-12)
    assert speedup(250, 250) == 1.0
    assert speedup(300, 120) == 2.5
    # BER
    tx = generate_bpsk(1000, 17)
    shifted = np.concatenate([np.ones(2), tx[:-2]])
    assert ber(shifted, tx, delay=2, skip=2) == 0.0
    assert ber(-tx, tx, delay=0, skip=0) == 1.0
    dec = tx.copy()
    dec[[10, 500, 900]] *= -1.0
    assert ber(dec, tx, delay=0, skip=0) == pytest.approx(0.003, abs=1e-15)
    print("\ncriterion 8 metrics unit suite: PASS")
