"""Layer instrumentation for the equalab benchmark, run as a child process.

    python3 perfbench/layers.py trace OUT.json run [equalab run flags...]
        Runs `equalab run` with a timing span around every call that crosses
        a layer boundary and writes the spans to OUT.json.
    python3 perfbench/layers.py count OUT.json run [equalab run flags...]
        Counts dsp/adapt calls per equalizer step on a short run of the same
        config, then times single calls of the inner primitives, and writes
        the numbers to OUT.json.

A layer is a module of `src/equalab`.  Calls are intercepted in the *calling*
module: every public function that the caller imported from another equalab
module is replaced in the caller's namespace.  An entry point that is renamed
or added later (say a batched `equalize` in place of `run_equalizer`) is
still attributed to its layer without editing this file.

The traced run wraps only the outer boundaries (cli -> experiment ->
txrx/dfe/metrics).  The dsp/adapt primitives run several times per
equalizer step, so wrapping them would inflate `dfe.busy_s`; they are
measured in the separate counting pass instead.

Spans inside `--jobs` pool workers stay in the workers and are lost; the
parent records how long it waited on the pool as `experiment.pool_wait_s`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import timeit
from collections import Counter

import numpy as np

# The two adaptation rules under their current internal and external names.
_RULE_NAMES = {"conventional": "lms", "improved": "ilms", "lms": "lms", "ilms": "ilms"}


def _layer(obj) -> str | None:
    mod = getattr(obj, "__module__", None) or ""
    return mod.rpartition(".")[2] if mod.startswith("equalab.") else None


def patch(module, wrap, owners, classes: bool = False) -> None:
    """Replace each public callable in `module`'s namespace whose defining
    layer is in `owners` with `wrap(layer, obj)`."""
    for name, obj in list(vars(module).items()):
        layer = _layer(obj)
        if name.startswith("_") or layer not in owners:
            continue
        if inspect.isfunction(obj) or (classes and inspect.isclass(obj)):
            setattr(module, name, wrap(layer, obj))


def _work(args) -> tuple[int, str | None]:
    """Steps in a call (size of its first array argument) and its rule, if any."""
    size = next((int(np.size(a)) for a in args if isinstance(a, np.ndarray)), 0)
    algo = next((getattr(a, "algo") for a in args if isinstance(getattr(a, "algo", None), str)), None)
    return size, algo


class Tracer:
    """In-memory spans: layer, name, start/end (ns), parent index, work size, rule."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, layer: str, name: str, size: int = 0, algo: str | None = None) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append(
            {"layer": layer, "name": name, "parent": parent, "size": size, "algo": algo,
             "start_ns": time.perf_counter_ns(), "end_ns": None}
        )

    def end(self) -> None:
        self.spans[self._open.pop()]["end_ns"] = time.perf_counter_ns()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(layer, fn.__name__, *_work(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def pool(self, base):
        """A subclass of the executor `base` whose `with` block is one span."""
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                tracer.begin("experiment", "pool_wait")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end()

        return TracedPool


def trace_main(out: str, argv: list[str]) -> int:
    import equalab.cli as cli
    import equalab.experiment as experiment

    tracer = Tracer()
    outer = {"cli", "experiment", "txrx", "dfe", "metrics"}
    for caller in (cli, experiment):
        patch(caller, tracer.wrap, outer - {caller.__name__.rpartition(".")[2]})
    cli.config_from_args = tracer.wrap("cli", cli.config_from_args)
    if hasattr(experiment, "ProcessPoolExecutor"):
        experiment.ProcessPoolExecutor = tracer.pool(experiment.ProcessPoolExecutor)
    try:
        return cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


def layer_metrics(spans: list[dict], symbols: int) -> dict[str, float]:
    """Per-layer numbers from one traced run; `symbols` is seeds x symbols."""

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def busy(layer):
        chosen = [s for s in spans if s["layer"] == layer]
        return sum(map(dur, chosen)), len(chosen)

    out: dict[str, float] = {}
    txrx_s, out["txrx.calls"] = busy("txrx")
    out["txrx.busy_s"] = txrx_s
    out["txrx.ns_per_symbol"] = txrx_s / symbols * 1e9
    dfe = [s for s in spans if s["layer"] == "dfe"]
    out["dfe.busy_s"] = sum(map(dur, dfe))
    out["dfe.calls"] = len(dfe)
    out["dfe.steps"] = sum(s["size"] for s in dfe)
    for rule in ("lms", "ilms"):
        mine = [s for s in dfe if _RULE_NAMES.get(s["algo"]) == rule]
        steps = sum(s["size"] for s in mine)
        out[f"dfe.ns_per_step.{rule}"] = sum(map(dur, mine)) / steps * 1e9 if steps else 0.0
    out["metrics.busy_s"], out["metrics.calls"] = busy("metrics")

    run_idx = next(i for i, s in enumerate(spans) if s["name"] == "run_experiment")
    run_s = dur(spans[run_idx])
    children = [s for s in spans if s["parent"] == run_idx]
    out["experiment.run_s"] = run_s
    out["experiment.self_s"] = run_s - sum(map(dur, children))
    out["experiment.pool_wait_s"] = sum(dur(s) for s in spans if s["name"] == "pool_wait")
    out["experiment.emit_s"] = sum(
        dur(s) for i, s in enumerate(spans)
        if s["layer"] == "experiment" and s["parent"] is None and i != run_idx
    )
    out["cli.parse_s"] = busy("cli")[0]
    return out


def _ns_per_call(fn, *args) -> float:
    """Fastest of five timed batches of about 20 ms each, minus the call overhead."""
    timer = timeit.Timer(lambda: fn(*args))
    number = max(1, int(0.02 / max(timer.timeit(number=50) / 50, 1e-9)))
    best = min(timer.repeat(repeat=5, number=number)) / number
    empty = timeit.Timer(lambda: None)
    base = min(empty.repeat(repeat=5, number=number)) / number
    return max(best - base, 0.0) * 1e9


def count_main(out: str, argv: list[str]) -> int:
    import equalab.adapt as adapt
    import equalab.cli as cli
    import equalab.dfe as dfe
    import equalab.dsp as dsp
    import equalab.experiment as experiment

    # Two seeds of 2000 symbols, in-process, of the workload's own config.
    short = [*argv, "--seeds", "2", "--n-symbols", "2000", "--jobs", "1"]
    config = cli.config_from_args(cli.build_parser().parse_args(short))
    steps = len(config.seeds) * config.n_symbols * len(config.algos)

    calls: Counter = Counter()

    def counting(layer, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    saved = [(m, dict(vars(m))) for m in (dfe, dsp, adapt)]
    for module in (dfe, dsp, adapt):
        patch(module, counting, {"dsp", "adapt"}, classes=True)
    try:
        experiment.run_experiment(config)
    finally:
        for module, names in saved:
            vars(module).update(names)

    ff, fb = np.linspace(-0.5, 0.5, config.n_ff), np.linspace(-0.5, 0.5, config.n_fb)
    params = adapt.AdaptParams(config.mu, config.step_floor, config.step_cap)
    step_ns = []
    for algo in config.algos:
        cfg = config.dfe_config(algo)
        step_ns.append(_ns_per_call(dfe.dfe_step, dfe.initial_state(cfg), 0.3, 1.0, cfg))
    result = {
        "dsp.calls_per_step": calls["dsp"] / steps,
        "adapt.calls_per_step": calls["adapt"] / steps,
        # Mean of one feed-forward-sized and one feedback-sized call, as a step makes them.
        "dsp.shift_in_ns": (_ns_per_call(dsp.shift_in, ff, 0.3) + _ns_per_call(dsp.shift_in, fb, 0.3)) / 2,
        "dsp.dot_ns": (_ns_per_call(dsp.dot, ff, ff) + _ns_per_call(dsp.dot, fb, fb)) / 2,
        "adapt.lms_update_ns": (
            _ns_per_call(adapt.lms_update, ff, ff, 0.1, 0.02)
            + _ns_per_call(adapt.lms_update, fb, fb, 0.1, 0.02)
        ) / 2,
        "adapt.effective_step_ns": _ns_per_call(adapt.effective_step, params, 0.3, 0.1),
        "dfe.dfe_step_ns": sum(step_ns) / len(step_ns),
    }
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    mode, out, *rest = sys.argv[1:]
    sys.exit({"trace": trace_main, "count": count_main}[mode](out, rest))
