"""Host-speed calibration for the equalab benchmark.

    python3 perfbench/calib.py STEPS
        Runs the reference kernel for STEPS equalizer steps and exits.

The benchmark's host shares its cores with other tenants, and the speed of
the same code on it changes by up to 2x, in stretches from under a second to
minutes.  A raw timing then says more about when it was taken than about the
program.  So the benchmark times a fixed reference process between the
program's runs and reports each timing scaled to the reference speed:

    scaled = measured * NOMINAL_S / (wall time of one reference process)

The reference process is built like an `equalab run`: a fresh interpreter
imports numpy, steps a DFE with an LMS update over small numpy arrays
through small functions and a frozen state record, and formats one CSV line
per step, so that both slow down together.  It is written here and imports nothing from equalab: changes to
the program do not change the yardstick.  With `procs` = 2 two reference
processes run at once, as a `--jobs 2` run uses two cores.
"""

from __future__ import annotations

import math
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Steps of one reference process, and the time that scaled figures assume
# one reference process takes (it took 0.55-0.9 s on the Intel Xeon vCPUs
# the benchmark was tuned on).
STEPS = 30_000
NOMINAL_S = 1.0

_N_FF, _N_FB, _MU = 11, 5, 0.01


@dataclass(frozen=True, slots=True)
class _State:
    ff: np.ndarray
    fb: np.ndarray
    ff_line: np.ndarray
    fb_line: np.ndarray
    prev_error: float
    iteration: int


def _shift_in(line: np.ndarray, x: float) -> np.ndarray:
    if not math.isfinite(x):
        raise ValueError(f"non-finite sample {x!r}")
    out = np.empty_like(line)
    out[0] = x
    out[1:] = line[:-1]
    return out


def _dot(w: np.ndarray, line: np.ndarray) -> float:
    if w.size != line.size:
        raise ValueError("length mismatch")
    return float(np.dot(w, line))


def _update(w: np.ndarray, x: np.ndarray, e: float, step: float) -> np.ndarray:
    if w.size != x.size:
        raise ValueError("length mismatch")
    return w + (step * e) * x


def _step(s: _State, r: float, variable: bool) -> tuple[float, _State]:
    ff_line = _shift_in(s.ff_line, r)
    y = _dot(s.ff, ff_line) - _dot(s.fb, s.fb_line)
    d = 1.0 if y >= 0.0 else -1.0
    e = d - y
    step = _MU * abs(e - s.prev_error) if variable else _MU
    ff = _update(s.ff, ff_line, e, step)
    fb = _update(s.fb, -s.fb_line, e, step)
    return e * e, _State(ff, fb, ff_line, _shift_in(s.fb_line, d), e, s.iteration + 1)


def kernel(steps: int) -> int:
    """Decision-directed DFE over a fixed received sequence, half the steps
    with a fixed and half with a variable step, then one CSV line per step
    formatted in memory, as `equalab run` writes its curves; returns the
    length of the text so that the work is not dead."""
    rng = np.random.default_rng(12345)
    n = steps // 2
    symbols = rng.choice((-1.0, 1.0), n)
    received = np.convolve(symbols, (0.3, 1.0, 0.3))[:n] + 0.05 * rng.standard_normal(n)
    lines = ["iteration,rule,sq_error,running_mean"]
    for variable in (False, True):
        ff = np.zeros(_N_FF)
        ff[_N_FF // 2] = 1.0
        s = _State(ff, np.zeros(_N_FB), np.zeros(_N_FF), np.zeros(_N_FB), 0.0, 0)
        sq = np.empty(n)
        for i in range(n):
            sq[i], s = _step(s, float(received[i]), variable)
        mean = np.cumsum(sq) / np.arange(1, n + 1)
        rule = "variable" if variable else "fixed"
        lines.extend(f"{i},{rule},{float(v):.17g},{float(m):.17g}" for i, (v, m) in enumerate(zip(sq, mean)))
    return len("\n".join(lines))


def measure(procs: int, steps: int = STEPS, deadline: float | None = None) -> float:
    """Wall seconds of one reference process, spawn to exit, the mean over
    `procs` run at once.  They are killed at `deadline` (time.monotonic())."""
    argv = [sys.executable, str(Path(__file__).resolve()), str(steps)]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    ends: dict[int, float] = {}

    def wait(proc):
        try:
            proc.wait(timeout=timeout)
            ends[proc.pid] = time.perf_counter()
        except subprocess.TimeoutExpired:
            pass

    started, threads = [], []
    try:
        for _ in range(procs):
            started.append((time.perf_counter(), subprocess.Popen(argv, stdout=subprocess.DEVNULL)))
            threads.append(threading.Thread(target=wait, args=(started[-1][1],)))
            threads[-1].start()
        for t in threads:
            t.join()
    finally:
        for _, proc in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if any(proc.returncode != 0 or proc.pid not in ends for _, proc in started):
        raise RuntimeError("a reference process failed or timed out")
    return sum(ends[proc.pid] - t0 for t0, proc in started) / procs


if __name__ == "__main__":
    kernel(int(sys.argv[1]))
