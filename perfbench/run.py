"""equalab benchmark: closed-loop `equalab run` timings, output checks and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload {default,wide,long,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

One client, closed loop: one `equalab run` process at a time, the next
spawned when the previous one exits, for as many runs as fit in `--seconds`
(at least one).  The program is run from `src/` of the checkout that holds
this directory; it is pure Python, so nothing is built.

`--trace 0` reports the end-to-end metrics: wall time, steps per second,
CPU time and peak RSS of each run, and the set-up time of a fresh process
that imports equalab and builds its config.  A fixed reference process
is timed between runs, and every timing is reported scaled to the
reference host speed (calib.py), since the host's own speed drifts by up
to 2x.  `--trace 1` pairs untraced runs with traced runs (see layers.py)
and a short counting pass, and reports the per-layer metrics and the
tracing overhead.  `--smoke` shrinks every workload to a tiny size so the
harness itself can be checked in seconds.

Every run's summary is checked against reference values recorded at the
commit that introduced this benchmark (reference.json, made by
make_reference.py): `{algo}.convergence_iter` and `{algo}.ber` must match
exactly and `{algo}.steady_state_mse` within MSE_REL_TOL.  A run that exits
non-zero or fails the check counts as failed.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calib
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

# The --seed of a run selects one of REF_SEEDS ensembles with stored
# reference outputs; seed k starts the ensemble at base seed 1 + 1000 * k,
# so --seed 0 is the program's own default ensemble.
REF_SEEDS = 16
# A reduction-order change moves squared errors by ~1e-15; one flipped
# decision moves the steady-state MSE by ~1e-4 relative or more.
MSE_REL_TOL = 1e-9
# Children still running this long after the benchmark started are killed,
# so that a hung program cannot hold the benchmark past 180 s.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    flags: tuple[str, ...]
    smoke: tuple[str, ...]


# Why each workload was chosen is recorded in BENCHMARK.json.
_WIDE = ("--mode", "trained", "--mu", "0.01", "--jobs", "2")
WORKLOADS = {
    "default": Workload(("--seeds", "4"), ("--seeds", "4", "--n-symbols", "600")),
    "wide": Workload(
        ("--seeds", "32", "--n-symbols", "1000", "--train-len", "200", *_WIDE),
        ("--seeds", "16", "--n-symbols", "300", "--train-len", "60", *_WIDE),
    ),
    "long": Workload(("--seeds", "1", "--n-symbols", "20000"), ("--seeds", "1", "--n-symbols", "4000")),
}

# Timings are the mean over a run's samples, scaled to the reference host
# speed (calib.py); peak RSS is the median as measured.
END_TO_END_UNITS = {"wall_s_ref": "s", "steps_per_s_ref": "1/s", "cpu_s_ref": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "txrx.busy_s": "s", "txrx.calls": "count", "txrx.ns_per_symbol": "ns",
    "dfe.busy_s": "s", "dfe.calls": "count", "dfe.steps": "count",
    "dfe.ns_per_step.lms": "ns", "dfe.ns_per_step.ilms": "ns",
    "dsp.calls_per_step": "count", "adapt.calls_per_step": "count",
    "dsp.shift_in_ns": "ns", "dsp.dot_ns": "ns", "adapt.lms_update_ns": "ns",
    "adapt.effective_step_ns": "ns", "dfe.dfe_step_ns": "ns",
    "metrics.busy_s": "s", "metrics.calls": "count",
    "experiment.run_s": "s", "experiment.self_s": "s", "experiment.pool_wait_s": "s",
    "experiment.emit_s": "s", "experiment.emit_bytes": "bytes",
    "cli.parse_s": "s", "trace.overhead_s": "s",
}

SETUP_CODE = (
    "import sys\n"
    "from equalab.cli import build_parser, config_from_args\n"
    "config_from_args(build_parser().parse_args(sys.argv[1:]))\n"
)


@dataclass(frozen=True)
class Sample:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    note: str = ""


def _kill(session: int) -> None:
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], log: Path, deadline: float | None) -> Sample:
    """Run one child in its own session; wall from spawn to exit, rusage of its tree.

    The rusage of a waited-for child includes the descendants it reaped (the
    pool workers), and ru_maxrss is the largest single process among them.
    The child's session is killed at `deadline` (time.monotonic()), if given.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=WORK, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True
        )
        timer = None
        if deadline is not None:
            timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill, (proc.pid,))
            timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            if timer is not None:
                timer.cancel()
                timer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    note = "" if proc.returncode == 0 else f"exit {proc.returncode}: {log.read_text(errors='replace').strip()[-300:]}"
    return Sample(proc.returncode == 0, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, note)


def reference(name: str, seed: int, smoke: bool) -> dict:
    """Stored outputs for this workload, size and seed."""
    refs = json.loads(REFERENCE.read_text())
    return refs[name + (".smoke" if smoke else "")][str(seed % REF_SEEDS)]


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def check(expected: dict, summary: Path, curves: Path) -> tuple[str, dict[str, str]]:
    """Compare a run's outputs with the stored reference; '' when they match."""
    if not summary.exists() or not curves.exists():
        return "outputs missing", {}
    got = read_summary(summary)
    for key, want in expected.items():
        have = got.get(key)
        if key.endswith(".steady_state_mse"):
            ok = have is not None and math.isclose(float(have), want, rel_tol=MSE_REL_TOL, abs_tol=0.0)
        else:
            ok = have == want
        if not ok:
            return f"{key} = {have}, expected {want}", got
    rows = int(got["n_symbols"]) * len(got["algo"].split(","))
    with open(curves, "rb") as fh:
        lines = fh.read().count(b"\n")
    if lines != rows + 1:
        return f"curves.csv has {lines} lines, expected {rows + 1}", got
    return "", got


def steps_of(summary: dict[str, str]) -> int:
    """Equalizer steps of a run: seeds x symbols x rules, as the run reports them."""
    return (
        len(summary["symbol_seeds"].split(","))
        * int(summary["n_symbols"])
        * len(summary["algo"].split(","))
    )


def environment() -> dict[str, str]:
    import numpy  # the program's dependency; imported here only to report its version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": cpu,
        "commit": commit,
    }


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    tail = "no tail percentile (needs >= 11 samples)"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            tail = f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g} {unit}"
            break
    return f"  {name:<14} median {statistics.median(values):.6g} {unit:<5} {tail}, n={n}"


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, smoke: bool, expected: dict,
                 deadline: float | None = None):
        self.name = name
        self.deadline = deadline
        self.workload = WORKLOADS[name]
        self.seconds = seconds
        self.expected = expected
        self.base_seed = 1 + 1000 * (seed % REF_SEEDS)
        flags = self.workload.smoke if smoke else self.workload.flags
        self.summary = WORK / f"{name}.summary.txt"
        self.curves = WORK / f"{name}.curves.csv"
        self.flags = [
            "run", *flags, "--base-seed", str(self.base_seed),
            "--out-curves", str(self.curves), "--out-summary", str(self.summary),
        ]
        self.procs = int(flags[flags.index("--jobs") + 1]) if "--jobs" in flags else 1
        self.cal_steps = calib.STEPS // 20 if smoke else calib.STEPS
        self.attempted = 0
        self.failed = 0
        self.symbols = 0
        self.steps = 0

    def run_checked(self, argv: list[str], label: str) -> Sample:
        """One run of the program; its outputs are checked against the reference."""
        for path in (self.summary, self.curves):
            path.unlink(missing_ok=True)
        sample = spawn(argv, WORK / f"{self.name}.stderr", self.deadline)
        problem = sample.note
        if sample.ok:
            problem, got = check(self.expected, self.summary, self.curves)
            if not problem:
                self.steps = steps_of(got)
                self.symbols = len(got["symbol_seeds"].split(",")) * int(got["n_symbols"])
        self.attempted += 1
        if problem:
            self.failed += 1
            sample = Sample(False, sample.wall_s, sample.cpu_s, sample.peak_rss_mb, problem)
        print(
            f"{label} {self.attempted}: wall {sample.wall_s:.4f} s, cpu {sample.cpu_s:.4f} s, "
            f"rss {sample.peak_rss_mb:.1f} MB, output {'FAILED: ' + problem if problem else 'ok'}"
        )
        return sample

    def loop(self, start: float, one_round) -> None:
        """Call `one_round` until the next one would end more than --seconds after
        `start` (a time.perf_counter() reading); at least once."""
        rounds = []
        while True:
            t = time.perf_counter()
            one_round()
            rounds.append(time.perf_counter() - t)
            if time.perf_counter() - start + statistics.median(rounds) > self.seconds:
                return

    def end_to_end(self) -> dict[str, float]:
        start = time.perf_counter()
        setup_argv = [sys.executable, "-c", SETUP_CODE, *self.flags]
        spawn(setup_argv, WORK / "setup.stderr", self.deadline)  # warm-up: compiles the bytecode cache
        setups: list[float] = []
        cals: list[float] = []
        samples: list[Sample] = []

        def one_round():
            # Set-up, calibration and run alternate, so that all three sample
            # the same stretches of host speed.
            s = spawn(setup_argv, WORK / "setup.stderr", self.deadline)
            if not s.ok:
                raise SystemExit(f"set-up failed: {s.note}")
            setups.append(s.wall_s)
            cals.append(calib.measure(self.procs, self.cal_steps, self.deadline))
            samples.append(self.run_checked([sys.executable, "-m", "equalab.cli", *self.flags], "run"))

        self.loop(start, one_round)
        good = [s for s in samples if s.ok] or samples
        series = {
            "wall_s": [s.wall_s for s in good],
            "steps_per_s": [self.steps / s.wall_s for s in good],
            "cpu_s": [s.cpu_s for s in good],
            "peak_rss_mb": [s.peak_rss_mb for s in good],
            "setup_s": setups,
        }
        scale = calib.NOMINAL_S / statistics.fmean(cals)
        out = {
            "wall_s_ref": statistics.fmean(series["wall_s"]) * scale,
            "cpu_s_ref": statistics.fmean(series["cpu_s"]) * scale,
            "peak_rss_mb": statistics.median(series["peak_rss_mb"]),
            "setup_s": statistics.fmean(setups) * scale,
        }
        out["steps_per_s_ref"] = self.steps / out["wall_s_ref"]
        print(f"end-to-end, {self.steps} equalizer steps per run (seeds x symbols x rules), as measured:")
        for key, vals in series.items():
            print(describe(key, vals, {"peak_rss_mb": "MB", "steps_per_s": "1/s"}.get(key, "s")))
        print(describe("calibration", cals, "s") + f" on {self.procs} process(es); "
              f"host speed {100 * scale:.1f}% of reference")
        print("reported (timings scaled to the reference host speed):")
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<16} {out[name]:.6g} {unit}")
        print(f"  {'failed_frac':<16} {self.failed / self.attempted:.6g} ({self.failed} of {self.attempted} runs)")
        return out

    def per_layer(self) -> dict[str, float]:
        spans_path, count_path = WORK / "spans.json", WORK / "count.json"
        plain, traced, per_run = [], [], []

        def pair():
            plain.append(self.run_checked([sys.executable, "-m", "equalab.cli", *self.flags], "untraced"))
            spans_path.unlink(missing_ok=True)
            s = self.run_checked([sys.executable, str(HERE / "layers.py"), "trace", str(spans_path), *self.flags], "traced")
            traced.append(s)
            if s.ok:
                per_run.append(layers.layer_metrics(json.loads(spans_path.read_text())["spans"], self.symbols))
                per_run[-1]["experiment.emit_bytes"] = self.summary.stat().st_size + self.curves.stat().st_size

        start = time.perf_counter()
        count = spawn(
            [sys.executable, str(HERE / "layers.py"), "count", str(count_path), *self.flags],
            WORK / "count.stderr",
            self.deadline,
        )
        if not count.ok:
            raise SystemExit(f"counting pass failed: {count.note}")
        self.loop(start, pair)
        if not per_run:
            raise SystemExit("no traced run passed its output check")
        out = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
        out.update(json.loads(count_path.read_text()))
        out["trace.overhead_s"] = statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
        print("per-layer, medians over traced runs (counting pass: 2 seeds x 2000 symbols):")
        for name in PER_LAYER_UNITS:
            print(f"  {name:<26} {out[name]:.6g} {PER_LAYER_UNITS[name]}")
        parts = ("txrx.busy_s", "dfe.busy_s", "metrics.busy_s", "experiment.pool_wait_s", "experiment.self_s")
        shares = ", ".join(f"{k} {100 * out[k] / out['experiment.run_s']:.2f}%" for k in parts)
        print(f"  run_experiment span {out['experiment.run_s']:.6g} s = {shares}")
        print(f"  tracing overhead: traced wall_s - untraced wall_s = {out['trace.overhead_s']:.6g} s")
        if out["experiment.pool_wait_s"] > 0:
            print("  note: spans inside --jobs pool workers are out of reach from the parent; the txrx, dfe"
                " and metrics work done there shows only as experiment.pool_wait_s")
        return out


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k.rpartition(":")[2]]} for k in metrics},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, to check the harness")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    # On SIGTERM, unwind through spawn() so that the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.stdout.reconfigure(line_buffering=True)
    if not (SRC / "equalab" / "cli.py").is_file():
        print(f"error: no equalab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    print(f"environment: {json.dumps(environment())}")
    print("note: these numbers, measured here, supersede the ROADMAP baseline of 6.7 us per step "
        "and 7.6 s per default run")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics: dict[str, float] = {}
    attempted = failed = 0
    for name in names:
        bench = Bench(name, args.seed, args.seconds, args.smoke, reference(name, args.seed, args.smoke), deadline)
        print(f"workload {name}, base seed {bench.base_seed}{', smoke size' if args.smoke else ''}")
        print(f"  closed loop, 1 client: equalab {' '.join(bench.flags)}")
        got = bench.per_layer() if args.trace else bench.end_to_end()
        prefix = f"{name}:" if len(names) > 1 else ""
        metrics.update({prefix + k: got[k] for k in units})
        attempted += bench.attempted
        failed += bench.failed
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
