"""Command-line harness: `equalab run` with config-file and flag overrides.

Config files are flat `key = value` text ('#' starts a comment); keys are
listed in `CONFIG_KEYS` below.  Command-line flags win over file entries,
which win over built-in defaults.
"""

from __future__ import annotations

import argparse
import sys

from .dfe import MODE_DECISION_DIRECTED, MODE_TRAINED
from .errors import ConfigurationError, InputError
from .experiment import (
    ExperimentConfig,
    RunRecord,
    emit_curves_csv,
    emit_summary,
    run_experiment,
)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_mode(text: str) -> str:
    t = text.strip().lower()
    if t in ("dd", MODE_DECISION_DIRECTED):
        return MODE_DECISION_DIRECTED
    if t == MODE_TRAINED:
        return MODE_TRAINED
    raise ValueError(f"expected dd or trained, got {text!r}")


def _parse_algos(text: str) -> tuple[str, ...]:
    return tuple(a.strip() for a in text.split(",") if a.strip())


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _optional(parse):
    def inner(text: str):
        return None if text.strip().lower() == "none" else parse(text)

    return inner


# Config-file key -> (ExperimentConfig field, value parser).  The `noiseless`
# key has no field of its own: true forces snr_db to none.
CONFIG_KEYS = {
    "n_symbols": ("n_symbols", int),
    "channel": ("channel", _parse_floats),
    "snr_db": ("snr_db", _optional(float)),
    "noiseless": ("noiseless", _parse_bool),
    "n_ff": ("n_ff", int),
    "n_fb": ("n_fb", int),
    "mu": ("mu", float),
    "algo": ("algos", _parse_algos),
    "mode": ("mode", _parse_mode),
    "training_len": ("training_len", int),
    "decision_delay": ("decision_delay", _optional(int)),
    "seeds": ("n_seeds", int),
    "base_seed": ("base_seed", int),
    "seed_list": ("seed_list", _optional(_parse_ints)),
    "window": ("window", int),
    "conv_ratio": ("conv_ratio", float),
    "tail_frac": ("tail_frac", float),
    "step_floor": ("step_floor", float),
    "step_cap": ("step_cap", _optional(float)),
    "center_spike": ("center_spike", _parse_bool),
    "jobs": ("jobs", int),
    "out_curves": ("out_curves", str),
    "out_summary": ("out_summary", str),
}


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file into ExperimentConfig overrides."""
    overrides: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"line {lineno}: expected key = value, got {raw.strip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigurationError("unknown configuration key", field=key)
            field, parse = CONFIG_KEYS[key]
            try:
                parsed = parse(value.strip())
            except ValueError as exc:
                raise ConfigurationError(f"line {lineno}: {exc}", field=key) from None
            if field == "noiseless":
                if parsed:
                    overrides["snr_db"] = None
            else:
                overrides[field] = parsed
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equalab",
        description="Decision-feedback equalizer experiments: fixed-step vs. variable-step LMS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment and write curve/summary files")
    run.add_argument("--config", metavar="FILE", help="flat key=value config file")
    run.add_argument("--n-symbols", type=int, dest="n_symbols", metavar="N")
    run.add_argument("--channel", metavar="a,b,c", help="channel impulse response")
    noise = run.add_mutually_exclusive_group()
    noise.add_argument("--snr-db", type=float, dest="snr_db", metavar="X")
    noise.add_argument("--noiseless", action="store_true", default=None)
    run.add_argument("--ff", type=int, dest="n_ff", metavar="N", help="feed-forward taps")
    run.add_argument("--fb", type=int, dest="n_fb", metavar="N", help="feedback taps")
    run.add_argument("--mu", type=float, metavar="X", help="base step size")
    run.add_argument("--algo", metavar="lms,ilms", help="algorithms to run")
    run.add_argument("--mode", choices=("dd", "trained"))
    run.add_argument("--train-len", type=int, dest="training_len", metavar="N")
    run.add_argument("--delay", type=int, dest="decision_delay", metavar="D")
    run.add_argument("--seeds", type=int, dest="n_seeds", metavar="N", help="number of seeds")
    run.add_argument("--base-seed", type=int, dest="base_seed", metavar="S")
    run.add_argument("--window", type=int, metavar="W", help="smoothing window")
    run.add_argument("--conv-ratio", type=float, dest="conv_ratio", metavar="R")
    run.add_argument("--tail-frac", type=float, dest="tail_frac", metavar="F")
    run.add_argument("--step-floor", type=float, dest="step_floor", metavar="X")
    run.add_argument("--step-cap", type=float, dest="step_cap", metavar="X")
    run.add_argument("--center-spike", action="store_true", default=None)
    run.add_argument("--jobs", type=int, metavar="N", help="parallel seed workers")
    run.add_argument("--out-curves", dest="out_curves", metavar="PATH")
    run.add_argument("--out-summary", dest="out_summary", metavar="PATH")
    return parser


_DIRECT_FLAGS = (
    "n_symbols",
    "n_ff",
    "n_fb",
    "mu",
    "training_len",
    "decision_delay",
    "n_seeds",
    "base_seed",
    "window",
    "conv_ratio",
    "tail_frac",
    "step_floor",
    "step_cap",
    "jobs",
    "out_curves",
    "out_summary",
)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict = {}
    if args.config:
        overrides.update(read_config_file(args.config))
    for name in _DIRECT_FLAGS:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.channel is not None:
        try:
            overrides["channel"] = _parse_floats(args.channel)
        except ValueError as exc:
            raise ConfigurationError(str(exc), field="channel") from None
    if args.algo is not None:
        overrides["algos"] = _parse_algos(args.algo)
    if args.mode is not None:
        overrides["mode"] = _parse_mode(args.mode)
    if args.noiseless:
        overrides["snr_db"] = None
    elif args.snr_db is not None:
        overrides["snr_db"] = args.snr_db
    if args.center_spike:
        overrides["center_spike"] = True
    return ExperimentConfig(**overrides)


def _print_report(record: RunRecord) -> None:
    cfg = record.config
    print(f"seeds: {len(record.seeds)}, symbols: {cfg.n_symbols}, mode: {cfg.mode}")
    rep = record.report
    for algo in sorted(record.curves):
        conv = rep.convergence_iter[algo]
        conv_txt = "not reached" if conv is None else f"@ iteration {conv}"
        print(
            f"{algo:>4}: steady-state MSE {rep.steady_state_mse[algo]:.6g}, "
            f"convergence {conv_txt}, BER {rep.ber[algo]:.6g}"
        )
    if rep.speedup is not None:
        print(f"speedup (lms/ilms convergence iterations): {rep.speedup:.3g}")
    print(f"wrote {cfg.out_curves} and {cfg.out_summary}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return 2
    try:
        record = run_experiment(config)
    except InputError as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 3
    try:
        emit_curves_csv(record, config.out_curves)
        emit_summary(record, config.out_summary)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    _print_report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
