"""Harness tests: config validation, aggregation, CSV/summary emission contracts."""

import ast
import dataclasses
import hashlib
import importlib
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import equalab
from equalab import (
    ConfigurationError,
    DfeConfig,
    InputError,
    LearningCurve,
    apply_channel,
    ber,
    equalize,
    generate_bpsk,
    learning_curve,
    smooth,
    steady_state_mse,
)
from equalab import _kernel, cli, experiment
from equalab.adapt import AdaptParams
from equalab.dfe import StepTrace, initial_state
from equalab.experiment import (
    NOISE_SEED_OFFSET,
    ExperimentConfig,
    RunRecord,
    SeedTable,
    draw,
    effective_steps,
    emit_curves_csv,
    emit_summary,
    run_experiment,
)
from spec_loop import run_spec, step_through


# The float settings of ExperimentConfig: DfeConfig's three step settings, then its own.
_FLOAT_SETTINGS = ("mu", "step_floor", "step_cap", "snr_db", "conv_ratio", "tail_frac")


def tiny_config(**kw):
    base = dict(n_symbols=400, n_seeds=4, window=20, mu=0.02)
    base.update(kw)
    return ExperimentConfig(**base)


def _first_step_failure(cfg):
    """The error line of the first run to fail when every seed and algorithm
    is stepped through `dfe_step` in the serial order; None if none does.  A
    run fails at the step where `dfe_step` raises, else at its first
    `trace.error * trace.error` that overflows."""
    with np.errstate(all="ignore"):
        symbols, received = draw(cfg, cfg.seeds)
        for seed, rx, tx in zip(cfg.seeds, received, symbols):
            for algo in cfg.algos:
                done, overflow = 0, None
                try:
                    for trace, _ in step_through(rx, cfg.dfe_config(algo), tx):
                        if overflow is None and not math.isfinite(trace.error * trace.error):
                            overflow = done
                        done += 1
                except InputError:
                    return f"algorithm {algo}, seed {seed}: non-finite quantizer input at iteration {done}"
                if overflow is not None:
                    return f"algorithm {algo}, seed {seed}: squared error overflows at iteration {overflow}"
    return None


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(n_symbols=0), "n_symbols"),
            (dict(algos=()), "algo"),
            (dict(algos=("lms", "rls")), "algo"),
            (dict(algos=("lms", "lms")), "algo"),
            (dict(window=0), "window"),
            (dict(window=10_000), "window"),
            (dict(conv_ratio=0.0), "conv_ratio"),
            (dict(tail_frac=0.0), "tail_frac"),
            (dict(tail_frac=1.5), "tail_frac"),
            (dict(n_seeds=0), "seeds"),
            (dict(conv_ratio=float("inf")), "conv_ratio"),
            (dict(mu=float("inf")), "mu"),
            (dict(jobs=0), "jobs"),
            (dict(channel=()), "channel"),
            (dict(n_ff=0), "n_ff"),
            (dict(mu=-1.0), "mu"),
            # BER would score no symbol after the default delay of 5.
            (dict(n_symbols=1, window=1), "n_symbols"),
            (dict(n_symbols=5, window=1), "n_symbols"),
            (dict(step_floor=float("nan")), "step_floor"),
            # numpy's PCG64 takes no negative seed.
            (dict(base_seed=-1), "base_seed"),
            (dict(step_cap=float("inf")), "step_cap"),
            (dict(snr_db=float("nan")), "snr_db"),
            (dict(snr_db=float("inf")), "snr_db"),
            # 10 ** 400.0 overflows a float.
            (dict(snr_db=-4000.0), "snr_db"),
            (dict(channel=(1.0, float("nan"))), "channel"),
            (dict(channel="0.5,0.3"), "channel"),
            (dict(channel=(1j,)), "channel"),
            # float(10**400) overflows.
            (dict(mu=10**400), "mu"),
            (dict(tail_frac=10**400), "tail_frac"),
        ],
    )
    def test_rejects_and_names_field(self, kw, field):
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(**kw)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "name,field,value",
        [
            pytest.param(name, field, value, id=f"{vid}-{name}-{field}")
            for vid, value in (("2.0", 2.0), ("1.5", 1.5), ("str", "3"))
            for name, field in (
                ("n_symbols", "n_symbols"), ("n_seeds", "seeds"), ("base_seed", "base_seed"),
                ("window", "window"), ("jobs", "jobs"), ("n_ff", "n_ff"), ("n_fb", "n_fb"),
                ("training_len", "training_len"), ("decision_delay", "decision_delay"),
            )
        ]
        + [
            pytest.param(name, name, value, id=f"{vid}-{name}-{name}")
            for vid, value in (("str", "0.02"), ("complex", 1j), ("none", None))
            for name in _FLOAT_SETTINGS
            if value is not None or name == "step_floor"  # snr_db and step_cap take None
        ],
    )
    def test_rejects_a_count_that_is_no_integer(self, name, field, value):
        # Accepted, a float count would fail deep in numpy with a TypeError,
        # and a float setting of "0.02" in a comparison with a TypeError.
        kind = "a real number" if name in _FLOAT_SETTINGS else "an integer"
        with pytest.raises(ConfigurationError, match=f"must be {kind}") as exc:
            ExperimentConfig(**{name: value})
        assert exc.value.field == field

    def test_accepts_integer_types(self):
        kw = dict(n_symbols=np.int64(400), n_seeds=np.uint8(2), window=np.int32(10), n_ff=np.int16(7))
        assert ExperimentConfig(**kw) == ExperimentConfig(n_symbols=400, n_seeds=2, window=10, n_ff=7)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_seeds=np.int8(10), base_seed=np.int8(120)),  # int8 seeds 120.. wrapped: no seed ran
            dict(n_ff=np.int8(11)),
            dict(n_fb=np.int8(5)),
            dict(n_symbols=np.int16(300)),
            dict(mode="trained", training_len=np.uint8(100), decision_delay=np.int8(3)),
            dict(window=np.int8(10), jobs=np.uint8(1)),
            {name: np.float32(v) for name, v in zip(_FLOAT_SETTINGS, (0.02, 0.01, 0.05, 20, 1.5, 0.2))},
        ],
        ids=["seeds", "n_ff", "n_fb", "n_symbols", "trained-delay", "window-jobs", "floats"],
    )
    def test_numpy_counts_run_as_their_int_twins(self, kw, tmp_path):
        # Stored as given, each count wrapped or overflowed inside the run, and
        # each float32 setting ran float32 arithmetic that its summary hid.
        base = dict(n_symbols=300, window=10, n_seeds=2)
        cfg = ExperimentConfig(**{**base, **kw})
        twin = ExperimentConfig(**{**base, **{k: v.item() if isinstance(v, np.generic) else v for k, v in kw.items()}})
        equalizer = ("n_ff", "n_fb", "training_len", *(() if cfg.decision_delay is None else ["decision_delay"]))
        counts = ("n_symbols", "n_seeds", "base_seed", "window", "jobs", *equalizer)
        assert all(type(getattr(cfg, name)) is int for name in counts)
        assert all(type(getattr(cfg.dfe_config("lms"), name)) is int for name in equalizer)
        floats = [name for name in _FLOAT_SETTINGS if name in kw]
        assert all(type(getattr(cfg, name)) is float for name in floats)
        steps = [name for name in floats if name in _FLOAT_SETTINGS[:3]]
        assert all(type(getattr(cfg.dfe_config("ilms"), name)) is float for name in steps)
        assert cfg == twin and hash(cfg) == hash(twin)
        got, want = run_experiment(cfg), run_experiment(twin)
        assert got.config.seeds == want.config.seeds and got.ber == want.ber
        for algo in want.curves:
            assert got.curves[algo].sq_errors.tobytes() == want.curves[algo].sq_errors.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got.seeds[algo], want.seeds[algo]))
        for record, name in ((got, "got.txt"), (want, "want.txt")):
            emit_summary(record, tmp_path / name)
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    @pytest.mark.parametrize("algos", ["lms", "ilms", "lmsilms"])
    def test_refuses_a_bare_string_of_rules(self, algos):
        # Iterated by character, "lms" was refused as the unknown rule 'l'.
        with pytest.raises(ConfigurationError, match=f"takes a sequence of rule names, got '{algos}'") as exc:
            ExperimentConfig(algos=algos)
        assert exc.value.field == "algo"

    @pytest.mark.parametrize("value", ["false", "true", 0.5, None])
    def test_center_spike_must_be_a_bool(self, value):
        # Accepted, "false" would run with the spike, as a truthy value.
        for make in (ExperimentConfig, lambda **kw: DfeConfig(n_ff=3, n_fb=1, mu=0.01, **kw)):
            with pytest.raises(ConfigurationError, match="must be a bool") as exc:
                make(center_spike=value)
            assert exc.value.field == "center_spike"

    def test_numpy_bool_is_stored_as_bool(self):
        cfg = ExperimentConfig(center_spike=np.False_)
        assert cfg.center_spike is False and cfg == ExperimentConfig(center_spike=False)

    def test_channel_and_algos_are_stored_as_tuples(self):
        configs = [
            ExperimentConfig(channel=channel, algos=algos)
            for channel, algos in (
                ([0.84, 0.543], ["lms", "ilms"]),
                ((0.84, 0.543), ("lms", "ilms")),
                (np.array([0.84, 0.543]), np.array(["lms", "ilms"])),
            )
        ]
        assert all(c == configs[0] and hash(c) == hash(configs[0]) for c in configs)
        assert [type(a) for a in configs[2].algos] == [str, str] and configs[2].channel == (0.84, 0.543)
        # A tuple of finite Python floats is stored as given; its twins go
        # through `taps`.  The summary writes each tap's repr, sign of zero too.
        for twins in (
            ((0.84, -0.0), [0.84, -0.0], np.array([0.84, -0.0]), tuple(np.array([0.84, -0.0]))),
            ((1, 0), (1.0, 0.0)),
        ):
            channels = [ExperimentConfig(channel=channel).channel for channel in twins]
            assert all(c == channels[0] and hash(c) == hash(channels[0]) for c in channels)
            assert len({repr(c) for c in channels}) == 1
            assert all(type(c) is tuple and all(type(x) is float for x in c) for c in channels)

    def test_noise_variance_from_snr(self):
        assert ExperimentConfig(snr_db=20.0).noise_variance == pytest.approx(0.01)
        assert ExperimentConfig(snr_db=None).noise_variance == 0.0

    def test_seed_derivation(self):
        cfg = ExperimentConfig(n_seeds=3, base_seed=10)
        assert cfg.seeds == (10, 11, 12)
        assert cfg.noise_seeds == tuple(s + NOISE_SEED_OFFSET for s in (10, 11, 12))

    def test_ber_skip_is_final_80_percent(self):
        assert ExperimentConfig().ber_skip == 1000
        assert tiny_config(n_symbols=400).ber_skip == 80
        # never scores inside the decision delay
        assert tiny_config(n_symbols=5, window=2, decision_delay=4).ber_skip == 4

    def test_shortest_run_scores_one_symbol(self):
        cfg = ExperimentConfig(n_symbols=6, window=1)
        assert cfg.ber_skip == 5
        assert cfg.n_symbols - cfg.ber_skip == 1


class TestRunExperiment:
    def test_produces_curves_and_report(self):
        rec = run_experiment(tiny_config())
        assert set(rec.curves) == {"lms", "ilms"}
        for curve in rec.curves.values():
            assert curve.sq_errors.shape == (400,)
            assert curve.smoothed.shape == (400 - 20 + 1,)
        assert set(rec.ber) == {"lms", "ilms"}
        assert rec.config.seeds == tuple(range(1, 5))

    def test_single_algorithm_has_no_speedup(self):
        rec = run_experiment(tiny_config(algos=("lms",)))
        assert set(rec.curves) == {"lms"}
        assert rec.speedup is None

    def test_deterministic_rerun(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        for algo in a.curves:
            assert a.curves[algo].sq_errors.tobytes() == b.curves[algo].sq_errors.tobytes()

    def test_parallel_fold_matches_serial(self, monkeypatch):
        serial = run_experiment(tiny_config(n_seeds=6))
        # Blocks of 1, 2, 3 and 4 rows (the last block short), at any jobs.
        for block_rows, jobs in ((1, 1), (2, 2), (3, 3), (4, 7)):
            monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", block_rows * 400)
            split = run_experiment(tiny_config(n_seeds=6, jobs=jobs))
            for algo in serial.curves:
                assert (
                    serial.curves[algo].sq_errors.tobytes()
                    == split.curves[algo].sq_errors.tobytes()
                ), f"block_rows={block_rows}"
            assert serial.ber == split.ber, f"block_rows={block_rows}"

    def test_block_fold_is_the_mean_of_all_rows(self, monkeypatch):
        cfg = tiny_config(n_seeds=13)
        single = run_experiment(cfg)
        # Every seed in one (13, N) batch, averaged at once.
        tx, rx = draw(cfg, cfg.seeds)
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", 3 * cfg.n_symbols)  # 3, 3, 3, 3, 1 rows
        folded = run_experiment(cfg)
        for algo in cfg.algos:
            dfe_cfg = cfg.dfe_config(algo)
            errors, decisions, _, _ = equalize(rx, dfe_cfg, tx)
            want = np.mean(errors * errors, axis=0).tobytes()
            assert single.curves[algo].sq_errors.tobytes() == want
            assert folded.curves[algo].sq_errors.tobytes() == want
            bers = [ber(d, t, dfe_cfg.delay, cfg.ber_skip) for d, t in zip(decisions, tx)]
            assert folded.ber[algo] == single.ber[algo] == float(np.mean(bers))

    def test_fold_memory_does_not_grow_with_seeds(self, monkeypatch):
        # Each block is summed as it arrives and then dropped.  Keeping every
        # block until the end would hold 2 x 60 x 400 float64 here (384 kB).
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", 2 * 400)
        cfg = tiny_config(n_seeds=60)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60 * 400 * 8

    @staticmethod
    def _block_peak(monkeypatch, **kw):
        """tracemalloc's peak over a run of two 32 x 4096 blocks of the
        default rules, in block-sized float64 arrays."""
        rows, n = 32, 4096
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", rows * n)
        cfg = tiny_config(n_symbols=n, n_seeds=2 * rows, **kw)
        run_experiment(tiny_config())  # the kernel is loaded before tracing
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (rows * n * 8)

    @pytest.mark.parametrize("kernel", ["c", "numpy"])
    def test_block_holds_four_arrays(self, monkeypatch, use_kernel, kernel):
        # tx, rx and the equalizer's D and E: both loops read rx in place,
        # each rule's rows are summed and freed before the next rule runs, and
        # the block before the next block is drawn.  The rest, about 0.5
        # here, is the ilms tail's steps.  A training preamble over the
        # whole block is written into E itself.
        use_kernel(kernel)
        assert self._block_peak(monkeypatch) < 4.75
        assert self._block_peak(monkeypatch, mode="trained", training_len=4096) < 4.75

    @pytest.mark.parametrize("kernel", ["c", "numpy"])
    def test_whole_tail_steps_take_one_array(self, monkeypatch, use_kernel, kernel):
        # At --tail-frac 1 the ilms steps span the whole block: built in one
        # array, in place, they add one block-sized array, about 5.1 in all.
        use_kernel(kernel)
        assert self._block_peak(monkeypatch, tail_frac=1.0) < 5.5

    def test_effective_steps_of_no_iterations(self):
        # No iterations take no steps under either rule, not an IndexError.
        cfg = tiny_config()
        for algo in ("lms", "ilms"):
            assert effective_steps(np.empty((2, 0)), cfg.dfe_config(algo)).shape == (2, 0)

    @pytest.mark.parametrize(
        "algos,jobs,block_rows",
        [
            (("lms", "ilms"), 1, None),
            (("lms", "ilms"), 3, 2),
            (("ilms", "lms"), 1, None),
            (("lms", "ilms"), 1, 1),
        ],
    )
    def test_failure_names_first_run_in_serial_order(self, monkeypatch, algos, jobs, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", block_rows * 300)
        # At mu=6 ilms blows up within a few dozen symbols on every seed and
        # lms much later on some: the serial order (seed, then algorithm)
        # decides which failure is reported, not the earliest iteration.
        cfg = tiny_config(
            n_symbols=300, n_seeds=6, mu=6.0, mode="trained", training_len=500,
            algos=algos, jobs=jobs,
        )
        expected = _first_step_failure(cfg)
        assert "non-finite quantizer input" in expected
        with pytest.raises(InputError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == expected

    @pytest.mark.parametrize("block_rows", [1, 3, 8])
    @pytest.mark.parametrize(
        "cap,n_symbols,n_seeds,expected",
        [
            (5.0, 200, 4, "algorithm ilms, seed 1: squared error overflows at iteration 172"),
            # Seed 7 turns non-finite at 267, but seed 1's square overflows at 148 first.
            (8.0, 270, 8, "algorithm ilms, seed 1: squared error overflows at iteration 148"),
        ],
        ids=["cap5", "cap8"],
    )
    def test_overflow_names_first_run_in_serial_order(
        self, monkeypatch, block_rows, cap, n_symbols, n_seeds, expected
    ):
        # One rule per row, whatever the block: a row fails at its first
        # non-finite error, else at its first overflowing square, and the
        # first failing row in seed order is named.
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", block_rows * n_symbols)
        cfg = tiny_config(
            n_symbols=n_symbols, n_seeds=n_seeds, mu=0.2, mode="trained", training_len=500,
            algos=("ilms",), step_floor=0.01, step_cap=cap, window=10,
        )
        assert _first_step_failure(cfg) == expected
        with pytest.raises(InputError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == expected

    @pytest.mark.parametrize("block_rows", [1, 3])
    @pytest.mark.parametrize(
        "base_seed,expected",
        [
            # Seed 10's samples are finite, seed 11's turn infinite at iteration 1.
            (10, "algorithm lms, seed 10: squared error overflows at iteration 1"),
            (11, "algorithm lms, seed 11: non-finite sample at iteration 1"),
        ],
        ids=["seed10", "seed11"],
    )
    def test_seeds_before_a_bad_sample_fail_first(self, monkeypatch, block_rows, base_seed, expected):
        # The channel sum overflows on some seeds only.  A seed with a
        # non-finite sample fails under the first rule, after every seed
        # before it has run, whatever the block.
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", block_rows * 3)
        cfg = ExperimentConfig(
            n_symbols=3, n_seeds=3, base_seed=base_seed, window=1, channel=(1e308, 1e308),
            n_ff=1, n_fb=1, center_spike=False,
        )
        with pytest.raises(InputError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == expected

    @pytest.mark.parametrize(
        "n_seeds,n_symbols,jobs,rows",
        [
            (50, 5000, 1, [50]),
            (32, 1000, 2, [32]),  # jobs changes no block
            (3, 40000, 1, [3]),
            (30, 50000, 1, [20, 10]),  # at most 2^20 samples per block
            (2, 600000, 1, [1, 1]),  # longer than 2^19 symbols: one seed per block
        ],
    )
    def test_block_split(self, monkeypatch, n_seeds, n_symbols, jobs, rows):
        calls = []

        def fake_equalize(rx, cfg, tx):  # records the batch; steps nothing
            calls.append((cfg.algo, rx.shape))
            weights = np.zeros((len(rx), cfg.n_ff)), np.zeros((len(rx), cfg.n_fb))
            return np.zeros(rx.shape), np.ones(rx.shape), *weights

        monkeypatch.setattr(experiment, "equalize", fake_equalize)
        run_experiment(ExperimentConfig(n_seeds=n_seeds, n_symbols=n_symbols, jobs=jobs))
        assert calls == [(a, (r, n_symbols)) for r in rows for a in ("lms", "ilms")]


@pytest.mark.parametrize("kernel", ["c", "numpy"])
class TestSeedTable:
    """Each rule's table holds a row per seed, in seed order, on either loop:
    that seed's BER, final taps and settled step, as if it ran alone."""

    @pytest.fixture(autouse=True)
    def loop(self, use_kernel, kernel):
        use_kernel(kernel)

    @pytest.mark.parametrize(
        "mode",
        [{}, {"mode": "trained", "training_len": 150}, {"step_floor": 0.1, "step_cap": 0.005}],
        ids=["dd", "trained", "floor-cap"],
    )
    def test_rows_are_the_seeds_run_alone(self, mode):
        cfg = tiny_config(n_symbols=300, n_seeds=3, **mode)
        record = run_experiment(cfg)
        tails = []  # the ilms steps over each tail
        for algo in cfg.algos:
            dfe_cfg, table = cfg.dfe_config(algo), record.seeds[algo]
            assert [a.shape for a in table] == [(3,), (3, cfg.n_ff), (3, cfg.n_fb), (3,)]
            for k, seed in enumerate(cfg.seeds):
                (tx,), (rx,) = draw(cfg, [seed])
                spec, final = run_spec(rx, dfe_cfg, tx)
                assert table.ber[k] == ber(spec["decision"], tx, dfe_cfg.delay, cfg.ber_skip)
                assert table.ff_weights[k].tobytes() == final.ff_weights.tobytes()
                assert table.fb_weights[k].tobytes() == final.fb_weights.tobytes()
                steps = spec["effective_step"]
                if algo == "lms":  # a fixed step: the column holds mu itself, not a mean of copies
                    assert (steps == dfe_cfg.mu).all() and table.settled_step[k] == dfe_cfg.mu
                else:
                    assert table.settled_step[k] == steady_state_mse(steps, cfg.tail_frac)
                    tails.append(steps[-math.ceil(cfg.tail_frac * len(steps)) :])
            assert record.ber[algo] == float(np.mean(table.ber))
        if "step_cap" in mode:  # some tail steps sit at the floor and some at the cap
            floor = cfg.mu * cfg.step_floor
            assert (np.concatenate(tails) == floor).any() and (np.concatenate(tails) == cfg.step_cap).any()

    def test_table_is_the_same_whatever_the_block(self, monkeypatch):
        cfg = tiny_config(n_seeds=7)
        tables = []
        for block_rows in (1, 3, 7):  # 3 rows: blocks of 3, 3 and 1
            monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", block_rows * cfg.n_symbols)
            tables.append({algo: [a.tobytes() for a in t] for algo, t in run_experiment(cfg).seeds.items()})
        assert len(tables[0]["ilms"]) == len(SeedTable._fields) == 4
        assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("kernel", ["c", "numpy"])
@pytest.mark.parametrize("snr_db", [20.0, None], ids=["noisy", "noiseless"])
def test_draw_is_each_seed_drawn_alone(monkeypatch, use_kernel, kernel, snr_db):
    """`draw`, and the blocks that a run draws, hold byte for byte each
    seed's own `generate_bpsk` and `apply_channel` calls."""
    use_kernel(kernel)
    cfg = tiny_config(n_symbols=300, n_seeds=5, base_seed=3, snr_db=snr_db)
    want_tx = np.array([generate_bpsk(cfg.n_symbols, s) for s in cfg.seeds])
    want_rx = np.array(
        [apply_channel(t, cfg.channel, cfg.noise_variance, s + NOISE_SEED_OFFSET) for t, s in zip(want_tx, cfg.seeds)]
    )
    tx, rx = draw(cfg, cfg.seeds)
    assert tx.shape == rx.shape == (5, cfg.n_symbols)
    assert tx.tobytes() == want_tx.tobytes() and rx.tobytes() == want_rx.tobytes()

    blocks = []
    real = experiment.equalize

    def recording(received, dfe_cfg, transmitted):
        if dfe_cfg.algo == cfg.algos[0]:
            blocks.append((np.array(transmitted), np.array(received)))
        return real(received, dfe_cfg, transmitted)

    monkeypatch.setattr(experiment, "equalize", recording)
    monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", 3 * cfg.n_symbols)  # blocks of 3 and 2 rows
    run_experiment(cfg)
    assert [len(t) for t, _ in blocks] == [3, 2]
    assert np.concatenate([t for t, _ in blocks]).tobytes() == want_tx.tobytes()
    assert np.concatenate([r for _, r in blocks]).tobytes() == want_rx.tobytes()


def test_serial_run_does_not_import_the_pool(child_env):
    """A run never loads multiprocessing, whatever jobs says: every run is
    one process, even with more than one block (2 seeds at jobs=2)."""
    code = (
        "import sys\n"
        "import equalab.cli\n"
        "from equalab.experiment import ExperimentConfig, run_experiment\n"
        "for jobs in (1, 2):\n"
        "    run_experiment(ExperimentConfig(n_symbols=300, n_seeds=2, window=10, jobs=jobs))\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "print([m for m in pool if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_serial_run_loads_neither_numpy_random_nor_openssl(tmp_path, compiled, child_env):
    """With the compiled kernel, a serial `equalab run` draws its symbols and
    noise without numpy.random, and names the kernel's cache file without
    hashlib, so neither they nor OpenSSL (_hashlib) are loaded."""
    code = (
        "import sys\n"
        "from equalab.cli import main\n"
        "rc = main(['run', '--seeds', '3', '--n-symbols', '300', '--out-curves', sys.argv[1],\n"
        "           '--out-summary', sys.argv[2]])\n"
        "print(rc, [m for m in ('numpy.random', 'hashlib', '_hashlib') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "c.csv"), str(tmp_path / "s.txt")],
        capture_output=True, text=True, env=child_env, check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"


def test_set_up_loads_neither_the_kernel_nor_the_draws(tmp_path, child_env):
    """Importing `equalab.cli` and building a config (what the benchmark's
    `setup_s` times), from flags or from a config file, loads neither numpy
    nor `_kernel`, which holds the draws' seed expansion: only a run does.
    A bare `import equalab` does not load numpy either."""
    config = tmp_path / "run.cfg"
    config.write_text("seeds = 4\nmode = trained\nchannel = 1, 0.5, -0.2\n", encoding="utf-8")
    code = (
        "import sys\n"
        "import equalab\n"
        "numpy = ['numpy' in sys.modules]\n"
        "from equalab.cli import build_parser, config_from_args\n"
        "for argv in (['run', '--seeds', '4', '--mode', 'trained'], ['run', '--config', sys.argv[1]]):\n"
        "    config_from_args(build_parser().parse_args(argv))\n"
        "    numpy.append('numpy' in sys.modules)\n"
        "print(numpy, 'equalab._kernel' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(config)], capture_output=True, text=True, env=child_env, check=True
    )
    assert out.stdout.strip() == "[False, False, False] False"


def test_only_kernel_knows_the_twins():
    """`_kernel` is the one module that knows a second implementation of the
    hot operations: every other module reads its `load` and nothing else of
    it, and it imports no equalab module but `dfe`."""
    readers = set()
    for path in sorted(Path(experiment.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, aliases = set(), set()  # the equalab modules it imports; its names for _kernel
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("equalab")):
                module = (node.module or "").removeprefix("equalab").lstrip(".").partition(".")[0]
                assert module != "_kernel" or path.stem == "_kernel", f"{path.name} imports from _kernel"
                for a in node.names:
                    imported.add(module or a.name)
                    if not module and a.name == "_kernel":
                        aliases.add(a.asname or a.name)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("equalab."):
                        imported.add(a.name.split(".")[1])
                    if a.name == "equalab._kernel" and a.asname:
                        aliases.add(a.asname)
        if path.stem == "_kernel":
            assert imported == {"dfe"}
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                assert node.attr == "load", f"{path.name} reads _kernel.{node.attr}"
                readers.add(path.stem)
    assert readers == {"dfe", "experiment", "txrx"}


def test_only_self_checking_records_are_dataclasses():
    """A record that checks its own fields in `__post_init__` is a frozen
    dataclass; every other record is a NamedTuple."""
    decorated, checking = set(), set()
    for path in sorted(Path(experiment.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for d in node.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                if (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)) == "dataclass":
                    decorated.add(node.name)
            if any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__" for f in node.body):
                checking.add(node.name)
    assert decorated == checking == {"DfeConfig", "ExperimentConfig"}


def _seed_table(n_seeds, config) -> SeedTable:
    """A table of `n_seeds` zero rows, shaped for `config`'s taps."""
    shapes = (n_seeds,), (n_seeds, config.n_ff), (n_seeds, config.n_fb), (n_seeds,)
    return SeedTable(*map(np.zeros, shapes))


_RECORDS = {
    "AdaptParams": lambda: AdaptParams(0.01),
    "DfeConfig": lambda: DfeConfig(n_ff=3, n_fb=1, mu=0.01),
    "ExperimentConfig": ExperimentConfig,
    "DfeState": lambda: initial_state(DfeConfig(n_ff=3, n_fb=1, mu=0.01)),
    "StepTrace": lambda: StepTrace(0, 0.5, 1.0, 0.5, 0.01),
    "LearningCurve": lambda: learning_curve(np.ones(10), 2, 1.5, 0.5),
    "SeedTable": lambda: _seed_table(2, ExperimentConfig()),
    "RunRecord": lambda: RunRecord(ExperimentConfig(), {}, {"lms": _seed_table(2, ExperimentConfig())}, None),
    "Setting": lambda: cli.SETTINGS[0],
    "Kernel": _kernel.numpy,
}


@pytest.mark.parametrize("name", _RECORDS)
def test_records_are_immutable(name):
    record = _RECORDS[name]()
    assert type(record).__name__ == name
    if isinstance(record, tuple):
        names = record._fields
    else:
        names = [f.name for f in dataclasses.fields(record)]
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_a_run_loads_the_kernel_once(child_env):
    """`dfe`, `txrx` and `experiment` share one cached `_kernel.load`: one
    build or lookup and one link per process."""
    code = (
        "import equalab._kernel as k\n"
        "from equalab.experiment import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig(n_symbols=300, n_seeds=2, window=10))\n"
        "print(k.load.cache_info().misses)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, check=True
    )
    assert out.stdout.strip() == "1"


# The scalar spec: `dfe_step`, the primitives it is built from and the record of its step settings.
_SPEC = (
    "dfe_step", "initial_state", "quantize", "shift_in", "dot", "delay_line", "lms_update", "effective_step",
    "AdaptParams",
)


# Where the scalar spec is defined, module by module.
_SPEC_HOMES = {
    "dfe": ("dfe_step", "DfeState", "StepTrace", "initial_state", "quantize"),
    "dsp": ("delay_line", "shift_in", "dot"),
    "adapt": ("lms_update", "effective_step", "AdaptParams"),
}


def test_the_spec_is_no_part_of_the_package_api():
    """`import equalab` gives the run's API and none of the spec's 11 names;
    each imports from the module that defines it, as `perfbench/layers.py`
    reads it, and `DfeConfig` keeps no copy of its step settings."""
    spec = {name for names in _SPEC_HOMES.values() for name in names}
    assert len(spec) == 11 and spec >= set(_SPEC)
    assert not spec & set(vars(equalab))
    for home, names in _SPEC_HOMES.items():
        module = importlib.import_module(f"equalab.{home}")
        assert all(getattr(module, name).__module__ == module.__name__ for name in names)
    layers = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "layers.py").read_text())
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(layers)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.attr in spec
    }
    assert len(read) == 7 and all(name in _SPEC_HOMES[home] for home, name in read)
    assert "params" not in {f.name for f in dataclasses.fields(DfeConfig)}


@pytest.mark.parametrize("loop", ["chosen", "numpy"])
@pytest.mark.parametrize(
    "flags", [[], ["--mode", "trained", "--train-len", "100", "--step-cap", "0.05"]], ids=["dd", "trained-cap"]
)
def test_a_run_never_calls_the_spec(tmp_path, monkeypatch, use_kernel, loop, flags):
    """Tests check `equalize` against the spec; a run itself calls none of it,
    so with every spec function raising it writes the same bytes."""
    if loop == "numpy":
        use_kernel("numpy")

    def outputs(tag):
        paths = [tmp_path / f"{tag}.csv", tmp_path / f"{tag}.txt"]
        argv = ["--n-symbols", "400", "--seeds", "4", "--window", "20", *flags]
        assert cli.main(["run", *argv, "--out-curves", str(paths[0]), "--out-summary", str(paths[1])]) == 0
        return [p.read_bytes() for p in paths]

    want = outputs("spec-bound")

    def raising(name):
        def spec_function(*args, **kwargs):
            raise AssertionError(f"the run called the spec function {name}")

        return spec_function

    modules = [m for n, m in sys.modules.items() if n == "equalab" or n.startswith("equalab.")]
    bound = [(m, name) for m in modules for name in _SPEC if hasattr(m, name)]
    assert {name for _, name in bound} == set(_SPEC)
    for module, name in bound:
        monkeypatch.setattr(module, name, raising(name))
    assert outputs("spec-raising") == want


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
def test_import_starts_openblas_with_one_thread_unless_set(preset, expected, child_env):
    """Importing equalab sets OPENBLAS_NUM_THREADS=1 before numpy loads, and
    numpy's OpenBLAS then reports one thread; a value already set wins."""
    code = (
        "import ctypes, os\n"
        "import equalab.cli\n"
        "from numpy._core import _multiarray_umath\n"
        "lib = ctypes.CDLL(_multiarray_umath.__file__)\n"
        "name = 'scipy_openblas_get_num_threads64_'\n"
        "threads = getattr(lib, name)() if hasattr(lib, name) else None\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], threads)\n"
    )
    env = child_env
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    variable, threads = out.stdout.split()
    assert variable == expected
    if threads == "None":
        pytest.skip("numpy's BLAS does not export scipy_openblas_get_num_threads64_")
    # OpenBLAS caps its thread count at the CPUs this process may use.
    assert int(threads) == min(int(expected), len(os.sched_getaffinity(0)))


def _forced_cores_run_here() -> bool:
    """Whether OPENBLAS_CORETYPE can select Prescott and Nehalem here: an
    x86-64 machine and a numpy linked against scipy-openblas."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return platform.machine().lower() in ("x86_64", "amd64") and blas.get("name") == "scipy-openblas"


@pytest.mark.skipif(not _forced_cores_run_here(), reason="needs x86-64 and numpy on scipy-openblas")
def test_outputs_do_not_depend_on_the_blas_core(tmp_path, child_env):
    """One config gives the same curves.csv and summary.txt bytes whichever
    kernel numpy's OpenBLAS runs: a run sums in its own order, never in BLAS.
    Only cores that every x86-64 CPU runs are forced."""
    outputs = set()
    for core in (None, "Prescott", "Nehalem"):
        env = {k: v for k, v in child_env.items() if k != "OPENBLAS_CORETYPE"}
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        cwd = tmp_path / (core or "unset")
        cwd.mkdir()
        subprocess.run(
            [sys.executable, "-m", "equalab.cli", "run", "--seeds", "4", "--n-symbols", "600"],
            cwd=cwd, env=env, capture_output=True, check=True,
        )
        outputs.add(((cwd / "curves.csv").read_bytes(), (cwd / "summary.txt").read_bytes()))
    assert len(outputs) == 1


def _reference_csv(record) -> bytes:
    """curves.csv built row by row, one format(v, ".17g") per value."""
    lines = ["iteration,algo,inst_sq_error,smoothed_mse"]
    for algo in sorted(record.curves):
        curve = record.curves[algo]
        for i, v in enumerate(curve.sq_errors):
            tail = format(float(curve.smoothed[i]), ".17g") if i < curve.smoothed.size else ""
            lines.append(f"{i},{algo},{format(float(v), '.17g')},{tail}")
    return ("\n".join(lines) + "\n").encode()


def _assert_fields_round_trip(raw: bytes, record) -> None:
    """Every value field parses back to the float64 bits it was written from,
    a NaN of either sign to a NaN (float.hex names every other bit pattern)."""
    rows = [r.split(",") for r in raw.decode().split("\n")[1:-1]]
    for algo, curve in record.curves.items():
        mine = [r for r in rows if r[1] == algo]
        inst = [float(r[2]).hex() for r in mine]
        smoothed = [float(r[3]).hex() for r in mine if r[3]]
        assert inst == [x.hex() for x in curve.sq_errors.tolist()]
        assert smoothed == [x.hex() for x in curve.smoothed.tolist()]


def _powers_of_ten(lo: int, hi: int) -> list[float]:
    """10^k for lo <= k < hi, each with the doubles one ulp below and above."""
    out = []
    for k in range(lo, hi):
        x = float(f"1e{k}")
        out += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return out


class TestEmission:
    """The CSV writer in Python (`_kernel.load` made to return `_kernel.numpy()`);
    `TestEmissionC` runs every case again through the compiled writer."""

    KERNEL = "numpy"

    @pytest.fixture(autouse=True)
    def kernel(self, use_kernel):
        use_kernel(self.KERNEL)

    @pytest.mark.parametrize(
        "kw",
        [{}, {"window": 1}, {"window": 400}, {"algos": ("ilms",)}],
        ids=["tiny", "window-1", "window-n-symbols", "one-algorithm"],
    )
    def test_csv_bytes_match_per_value_format(self, tmp_path, kw):
        rec = run_experiment(tiny_config(**kw))
        path = tmp_path / "curves.csv"
        emit_curves_csv(rec, path)
        raw = path.read_bytes()
        assert raw == _reference_csv(rec)
        _assert_fields_round_trip(raw, rec)

    def test_csv_bytes_of_extreme_values(self, tmp_path):
        # Both sides of every edge of the compiled writer: its exact path
        # (a normal |v| in [2^-129, 1e17)), its snprintf path, the powers of
        # ten where the digit count changes, and ties of the 17th digit that
        # round to even down (32001/2^18, 2^50+1/4) and up (32003/2^18,
        # 2^50+3/4).
        edges = [
            0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
            1.7976931348623157e308, math.inf, math.nan, 2.0**-129, math.nextafter(2.0**-129, 0.0),
            32001 / 2**18, 32003 / 2**18, 2.0**50 + 0.25, 2.0**50 + 0.75, 0.1, 1 / 3,
        ]
        values = np.array([*edges, *(-x for x in edges), *_powers_of_ten(-41, 19)])
        # A reversed view: both writers take any float64 array of a curve.
        curve = LearningCurve(values, values[::-1][:-3], float(values[-1]), None)
        rec = RunRecord(tiny_config(), {"lms": curve}, {"lms": _seed_table(4, tiny_config())}, None)
        path = tmp_path / "curves.csv"
        emit_curves_csv(rec, path)
        raw = path.read_bytes()
        assert raw == _reference_csv(rec)
        for text in (b"4.9406564584124654e-324", b"1.7976931348623157e+308", b",-0,", b",-inf,", b",nan,"):
            assert text in raw
        assert b"0.12207412719726562," in raw and b"0.12208175659179688," in raw
        assert b"-nan" not in raw
        _assert_fields_round_trip(raw, rec)

    def test_csv_format_contract(self, tmp_path):
        rec = run_experiment(tiny_config())
        path = tmp_path / "curves.csv"
        emit_curves_csv(rec, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines[0] == "iteration,algo,inst_sq_error,smoothed_mse"
        assert lines[-1] == ""  # trailing newline
        rows = [ln.split(",") for ln in lines[1:-1]]
        assert len(rows) == 2 * 400
        assert rows[0][0] == "0"
        # sorted by (algo, iteration)
        keys = [(r[1], int(r[0])) for r in rows]
        assert keys == sorted(keys)
        # smoothed column blank exactly for the last window-1 iterations
        ilms_rows = [r for r in rows if r[1] == "ilms"]
        blanks = [r for r in ilms_rows if r[3] == ""]
        assert len(blanks) == 19
        assert all(int(r[0]) >= 400 - 19 for r in blanks)

    def test_csv_roundtrip_recomputes_smoothed(self, tmp_path):
        cfg = tiny_config()
        rec = run_experiment(cfg)
        path = tmp_path / "curves.csv"
        emit_curves_csv(rec, path)
        rows = path.read_text().strip().split("\n")[1:]
        inst = {"lms": [], "ilms": []}
        smoothed = {"lms": [], "ilms": []}
        for row in rows:
            it, algo, v, s = row.split(",")
            inst[algo].append(float(v))
            if s:
                smoothed[algo].append(float(s))
        for algo in inst:
            recomputed = smooth(np.array(inst[algo]), cfg.window)
            np.testing.assert_allclose(recomputed, smoothed[algo], atol=1e-12, rtol=0)

    def test_summary_echoes_config_and_seeds(self, tmp_path):
        cfg = tiny_config(n_seeds=3, base_seed=8)
        rec = run_experiment(cfg)
        path = tmp_path / "summary.txt"
        emit_summary(rec, path)
        text = path.read_text()
        entries = dict(
            line.split(" = ", 1) for line in text.strip().split("\n")
        )
        assert entries["symbol_seeds"] == "8,9,10"
        assert entries["noise_seeds"] == ",".join(str(s + NOISE_SEED_OFFSET) for s in (8, 9, 10))
        for key in (
            "tool_version", "n_symbols", "channel", "snr_db", "noise_variance",
            "n_ff", "n_fb", "mu", "algo", "mode", "training_len", "decision_delay",
            "center_spike", "step_floor", "step_cap", "window", "conv_ratio",
            "tail_frac", "ber_skip",
        ):
            assert key in entries
        assert "lms.steady_state_mse" in entries
        assert "ilms.ber" in entries

    def test_speedup_line_absent_without_both_algorithms(self, tmp_path):
        rec = run_experiment(tiny_config(algos=("lms",)))
        path = tmp_path / "summary.txt"
        emit_summary(rec, path)
        assert "speedup" not in path.read_text()

    def test_summary_matches_recomputation_from_csv(self, tmp_path):
        cfg = tiny_config()
        rec = run_experiment(cfg)
        curves_path = tmp_path / "curves.csv"
        summary_path = tmp_path / "summary.txt"
        emit_curves_csv(rec, curves_path)
        emit_summary(rec, summary_path)
        entries = dict(
            line.split(" = ", 1) for line in summary_path.read_text().strip().split("\n")
        )
        inst = {"lms": [], "ilms": []}
        for row in curves_path.read_text().strip().split("\n")[1:]:
            it, algo, v, _ = row.split(",")
            inst[algo].append(float(v))
        for algo in inst:
            recomputed = steady_state_mse(np.array(inst[algo]), cfg.tail_frac)
            assert abs(recomputed - float(entries[f"{algo}.steady_state_mse"])) <= 1e-12

    def test_emitted_bytes_are_reproducible(self, tmp_path):
        cfg = tiny_config()
        paths = []
        for tag in ("a", "b"):
            rec = run_experiment(cfg)
            cp, sp = tmp_path / f"c{tag}.csv", tmp_path / f"s{tag}.txt"
            emit_curves_csv(rec, cp)
            emit_summary(rec, sp)
            paths.append((cp.read_bytes(), sp.read_bytes()))
        assert paths[0] == paths[1]


    def test_noiseless_bytes_are_golden(self, tmp_path):
        # `equalab run --snr-db none --seeds 4 --n-symbols 600`.  Only a
        # noiseless run is pinned: Box-Muller's np.log, np.sin and np.cos
        # take numpy's SIMD paths, which differ by host in the last bit.
        rec = run_experiment(ExperimentConfig(snr_db=None, n_seeds=4, n_symbols=600))
        emit_curves_csv(rec, tmp_path / "curves.csv")
        emit_summary(rec, tmp_path / "summary.txt")
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("curves.csv", "summary.txt")]
        assert digests == [
            "aa00ad09f4d7e06be535fae1854d582ddc0023054b6f74123c7e67ec8abb383f",
            "dc77db942a1ada4eddd7e799fe3ecc24d38ebf05d22dab7b7e41bfd848b8e4ca",
        ]


class TestEmissionC(TestEmission):
    KERNEL = "c"


def test_compiled_rows_match_format_on_bulk_values(compiled):
    """The compiled writer gives format(v, ".17g") on 2*10^5 seeded random
    finite bit patterns (half of them with exponents in its exact range),
    ties of the 17th digit at 24 scales, and the powers of ten and their
    neighbours."""
    rows = compiled.rows
    rng = np.random.default_rng(16)
    n = 100_000
    anywhere = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    exact = rng.integers(1023 - 129, 1023 + 57, n, dtype=np.uint64) << np.uint64(52)
    exact |= rng.integers(0, 2**52, n, dtype=np.uint64) | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    # j/2^s with j odd has exactly 18 significant digits when j*5^s does:
    # j in [10^17/5^s, 10^18/5^s), which holds a 53-bit j for s = 2..25.
    ties = [
        math.ldexp(int(j) | 1, -s)
        for s in range(2, 26)
        for j in rng.integers(-(-(10**17) // 5**s), min(2**53, 10**18 // 5**s), 200)
    ]
    ties += (np.arange(26215, 2**18, 2) / 2**18).tolist()  # every tie of j/2^18
    values = np.concatenate(
        [anywhere[np.isfinite(anywhere)], exact.view(np.float64), ties, _powers_of_ten(-330, 309)]
    )
    texts = [format(v, ".17g") for v in values.tolist()]
    smoothed = values[::-1][:1000].copy()
    want = [f"{i},x,{a},{b}\n" for i, (a, b) in enumerate(zip(texts, texts[::-1][:1000]))]
    want += [f"{i},x,{a},\n" for i, a in enumerate(texts[1000:], 1000)]
    assert bytes(rows("x", values, smoothed)) == "".join(want).encode()


@pytest.mark.parametrize("bad", ["float32", "non-contiguous", "two-dimensional", "smoothed-longer"])
def test_compiled_rows_reject_other_buffers(compiled, bad):
    # The writer reads raw C-ordered float64 memory, one value per row, and
    # the smoothed column never has more values than the squared errors.
    sq, smoothed = np.ones(10), np.ones(8)
    if bad == "float32":
        sq = sq.astype(np.float32)
    elif bad == "non-contiguous":
        smoothed = np.ones(16)[::2]
    elif bad == "two-dimensional":
        sq = np.ones((2, 5))
    else:
        smoothed = np.ones(11)
    with pytest.raises(ValueError):
        compiled.rows("lms", sq, smoothed)
