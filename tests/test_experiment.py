"""Harness tests: config validation, aggregation, CSV/summary emission contracts."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from equalab import (
    ConfigurationError,
    InputError,
    LearningCurve,
    apply_channel,
    dfe_step,
    generate_bpsk,
    initial_state,
    smooth,
    steady_state_mse,
)
from equalab import cli, experiment
from equalab.experiment import (
    NOISE_SEED_OFFSET,
    ExperimentConfig,
    RunRecord,
    emit_curves_csv,
    emit_summary,
    run_experiment,
)


def tiny_config(**kw):
    base = dict(n_symbols=400, n_seeds=4, window=20, mu=0.02)
    base.update(kw)
    return ExperimentConfig(**base)


def _first_step_failure(cfg):
    """(algorithm, seed, iteration) of the first run to fail when every seed and
    algorithm is stepped through `dfe_step` in the serial order; None if none does."""
    with np.errstate(all="ignore"):
        for seed in cfg.seeds:
            tx = generate_bpsk(cfg.n_symbols, seed)
            rx = apply_channel(tx, cfg.channel, cfg.noise_variance, seed + NOISE_SEED_OFFSET)
            for algo in cfg.algos:
                dfe_cfg = cfg.dfe_config(algo)
                train = cfg.training_len if cfg.mode == "trained" else 0
                st = initial_state(dfe_cfg)
                for i, r in enumerate(rx):
                    ts = None
                    if i < train:
                        ts = tx[i - dfe_cfg.delay] if i >= dfe_cfg.delay else 1.0
                    try:
                        _, st = dfe_step(st, float(r), ts, dfe_cfg)
                    except InputError:
                        return algo, seed, i
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
        ],
    )
    def test_rejects_and_names_field(self, kw, field):
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(**kw)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "name,field",
        [
            ("n_symbols", "n_symbols"), ("n_seeds", "seeds"), ("base_seed", "base_seed"),
            ("window", "window"), ("jobs", "jobs"), ("n_ff", "n_ff"), ("n_fb", "n_fb"),
            ("training_len", "training_len"), ("decision_delay", "decision_delay"),
        ],
    )
    @pytest.mark.parametrize("value", [2.0, 1.5, "3"], ids=["2.0", "1.5", "str"])
    def test_rejects_a_count_that_is_no_integer(self, name, field, value):
        # Accepted, a float count would fail deep in numpy with a TypeError.
        with pytest.raises(ConfigurationError, match="must be an integer") as exc:
            ExperimentConfig(**{name: value})
        assert exc.value.field == field

    def test_accepts_integer_types(self):
        kw = dict(n_symbols=np.int64(400), n_seeds=np.uint8(2), window=np.int32(10), n_ff=np.int16(7))
        assert ExperimentConfig(**kw) == ExperimentConfig(n_symbols=400, n_seeds=2, window=10, n_ff=7)

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
        whole = experiment._run_block(cfg, cfg.seeds)  # every seed in one (13, N) block
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", 3 * cfg.n_symbols)  # 3, 3, 3, 3, 1 rows
        folded = run_experiment(cfg)
        for algo in cfg.algos:
            want = np.mean(whole[algo][0], axis=0).tobytes()
            assert single.curves[algo].sq_errors.tobytes() == want
            assert folded.curves[algo].sq_errors.tobytes() == want
            assert folded.ber[algo] == single.ber[algo] == float(np.mean(whole[algo][1]))

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
        algo, seed, i = _first_step_failure(cfg)
        expected = f"algorithm {algo}, seed {seed}: non-finite quantizer input at iteration {i}"
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
            return np.zeros(rx.shape), np.ones(rx.shape)

        monkeypatch.setattr(experiment, "equalize", fake_equalize)
        run_experiment(ExperimentConfig(n_seeds=n_seeds, n_symbols=n_symbols, jobs=jobs))
        assert calls == [(a, (r, n_symbols)) for r in rows for a in ("lms", "ilms")]


def _child_env() -> dict:
    """This environment, with the equalab under test first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_serial_run_does_not_import_the_pool():
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
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), check=True
    )
    assert out.stdout.strip() == "[]"


def test_serial_run_loads_neither_numpy_random_nor_openssl(tmp_path, compiled):
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
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"


def test_set_up_loads_neither_the_kernel_nor_the_draws():
    """Importing `equalab.cli` and building a config (what the benchmark's
    `setup_s` times) loads neither `_kernel` nor `_pcg64`: only a run does."""
    code = (
        "import sys\n"
        "from equalab.cli import build_parser, config_from_args\n"
        "config_from_args(build_parser().parse_args(['run', '--seeds', '4', '--mode', 'trained']))\n"
        "print([m for m in ('equalab._kernel', 'equalab._pcg64') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), check=True
    )
    assert out.stdout.strip() == "[]"


def test_a_run_loads_the_kernel_once():
    """`dfe` and `_pcg64` share one cached `_kernel.load`: one build or lookup
    and one link per process."""
    code = (
        "import equalab._kernel as k\n"
        "from equalab.experiment import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig(n_symbols=300, n_seeds=2, window=10))\n"
        "print(k.load.cache_info().misses)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), check=True
    )
    assert out.stdout.strip() == "1"


# The scalar spec: `dfe_step` and the primitives it is built from.
_SPEC = ("dfe_step", "initial_state", "quantize", "shift_in", "dot", "delay_line", "lms_update", "effective_step")


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
def test_import_starts_openblas_with_one_thread_unless_set(preset, expected):
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
    env = _child_env()
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
    """Every value field parses back to the float64 bits it was written from."""
    rows = [r.split(",") for r in raw.decode().split("\n")[1:-1]]
    for algo, curve in record.curves.items():
        mine = [r for r in rows if r[1] == algo]
        inst = np.array([float(r[2]) for r in mine])
        smoothed = np.array([float(r[3]) for r in mine if r[3]])
        assert inst.view(np.uint64).tolist() == curve.sq_errors.view(np.uint64).tolist()
        assert smoothed.view(np.uint64).tolist() == curve.smoothed.view(np.uint64).tolist()


class TestEmission:
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
        values = np.array([0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1, 1 / 3])
        curve = LearningCurve(values, values[::-1][:4].copy(), 3, float(values[-1]), None)
        rec = RunRecord(tiny_config(), {"lms": curve}, {"lms": 0.0}, None)
        path = tmp_path / "curves.csv"
        emit_curves_csv(rec, path)
        raw = path.read_bytes()
        assert raw == _reference_csv(rec)
        assert b"4.9406564584124654e-324" in raw and b"1.7976931348623157e+308" in raw
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
