"""Record the reference outputs that the benchmark checks every run against.

    python3 perfbench/make_reference.py

Runs each workload, at full and at smoke size, once per reference seed and
writes the per-rule convergence iteration, BER and steady-state MSE of each
run to reference.json.  Run it only at a commit whose outputs are known to
be right: later commits are checked against these values.
"""

from __future__ import annotations

import json
import sys

from run import REF_SEEDS, REFERENCE, WORK, WORKLOADS, Bench, read_summary


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    WORK.mkdir(parents=True, exist_ok=True)
    refs: dict[str, dict[str, dict]] = {}
    for smoke in (True, False):
        for name in WORKLOADS:
            key = name + (".smoke" if smoke else "")
            refs[key] = {}
            for k in range(REF_SEEDS):
                bench = Bench(name, k, 0, smoke, expected={})
                if not bench.run_checked([sys.executable, "-m", "equalab.cli", *bench.flags], key).ok:
                    raise SystemExit(f"{key} seed {k} failed")
                got = read_summary(bench.summary)
                entry = {}
                for algo in got["algo"].split(","):
                    entry[f"{algo}.convergence_iter"] = got[f"{algo}.convergence_iter"]
                    entry[f"{algo}.ber"] = got[f"{algo}.ber"]
                    entry[f"{algo}.steady_state_mse"] = float(got[f"{algo}.steady_state_mse"])
                refs[key][str(k)] = entry
                print(f"{key} seed {k}: {entry}")
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
