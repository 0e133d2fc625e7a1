"""Smoke test of the benchmark harness: every workload, shrunk, runs and checks out.

The full benchmark (`python3 perfbench/run.py --workload all ...`) is too slow
for the test suite; `--smoke` shrinks each workload to a few thousand
equalizer steps and still checks every run against perfbench/reference.json.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_runs_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0.1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
