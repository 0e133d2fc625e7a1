"""Smoke test of the benchmark harness: every workload, shrunk, runs and checks out.

The full benchmark (`python3 perfbench/run.py --workload all ...`) is too slow
for the test suite; `--smoke` shrinks each workload to a few thousand
equalizer steps and still checks every run against perfbench/reference.json.
The traced mode (`--trace 1`) also runs the counting pass, which reads the
equalizer's spec and primitives by name, so a rename in `src/` that breaks a
per-layer number fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke(trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0.1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    return result


def test_benchmark_smoke_runs_correct():
    _smoke("0")


def test_benchmark_traced_smoke_reports_every_layer():
    metrics = _smoke("1")["metrics"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [f"{w['name']}:{m['name']}" for w in bench["workloads"] for m in bench["per_layer"]]
    assert [n for n in names if n not in metrics] == []
