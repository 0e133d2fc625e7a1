"""Command-line harness: `equalab run` with config-file and flag overrides.

Config files are flat `key = value` UTF-8 text ('#' starts a comment).  Every
setting is one row of `SETTINGS` below: its file key, its flag, and the one
parser both go through.  Command-line flags win over file entries, which win
over built-in defaults.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Callable, NamedTuple

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


def _entries(text: str) -> list[str]:
    """The comma-separated entries of `text`, stripped.  An empty entry is an
    error, not skipped: `0.5,,0.3` would otherwise run a 2-tap channel."""
    items = [x.strip() for x in text.split(",")]
    if "" in items:
        raise ValueError(f"empty entry in list {text.strip()!r}")
    return items


def _parse_algos(text: str) -> tuple[str, ...]:
    return tuple(_entries(text))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in _entries(text))


def _optional(parse):
    def inner(text: str):
        return None if text.strip().lower() == "none" else parse(text)

    return inner


class Setting(NamedTuple):
    """One setting: config-file key, ExperimentConfig field, flag, parser, help."""

    key: str
    field: str
    flag: str
    parse: Callable[[str], object]
    metavar: str
    help: str


SETTINGS = (
    Setting("n_symbols", "n_symbols", "--n-symbols", int, "N", "symbols per run"),
    Setting("channel", "channel", "--channel", _parse_floats, "a,b,c", "channel impulse response"),
    Setting("snr_db", "snr_db", "--snr-db", _optional(float), "X", "SNR in dB, or none"),
    Setting("n_ff", "n_ff", "--ff", int, "N", "feed-forward taps"),
    Setting("n_fb", "n_fb", "--fb", int, "N", "feedback taps"),
    Setting("mu", "mu", "--mu", float, "X", "base step size"),
    Setting("algo", "algos", "--algo", _parse_algos, "lms,ilms", "algorithms to run"),
    Setting("mode", "mode", "--mode", _parse_mode, "dd|trained", "error reference"),
    Setting("training_len", "training_len", "--train-len", int, "N", "training preamble length"),
    Setting(
        "decision_delay", "decision_delay", "--delay", _optional(int), "D",
        "reference delay, or none for the FF half-length",
    ),
    Setting("seeds", "n_seeds", "--seeds", int, "N", "number of seeds"),
    Setting("base_seed", "base_seed", "--base-seed", int, "S", "first seed"),
    Setting("window", "window", "--window", int, "W", "smoothing window"),
    Setting("conv_ratio", "conv_ratio", "--conv-ratio", float, "R", "convergence threshold ratio"),
    Setting("tail_frac", "tail_frac", "--tail-frac", float, "F", "steady-state tail fraction"),
    Setting("step_floor", "step_floor", "--step-floor", float, "X", "ilms step-scale floor"),
    Setting("step_cap", "step_cap", "--step-cap", _optional(float), "X", "ilms step cap, or none"),
    Setting(
        "center_spike", "center_spike", "--center-spike", _parse_bool, "BOOL",
        "start the FF filter as a unit spike at the delay tap",
    ),
    Setting("jobs", "jobs", "--jobs", int, "N", "accepted and checked (>= 1); changes nothing"),
    Setting("out_curves", "out_curves", "--out-curves", str, "PATH", "learning-curve CSV"),
    Setting("out_summary", "out_summary", "--out-summary", str, "PATH", "key=value summary"),
)
_BY_KEY = {s.key: s for s in SETTINGS}


def _apply(overrides: dict, setting: Setting, text: str, where: str = "") -> None:
    """Parse `text` for `setting` into `overrides`; `where` prefixes errors."""
    try:
        value = setting.parse(text)
    except ValueError as exc:
        raise ConfigurationError(f"{where}{exc}", field=setting.key) from None
    overrides[setting.field] = value


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file into ExperimentConfig overrides."""
    overrides: dict = {}
    seen: dict = {}  # key -> the line that set it; a key may be set once
    with open(path, encoding="utf-8-sig") as fh:  # utf-8-sig: a leading BOM is dropped
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not (eq and key):
                raise ConfigurationError(
                    f"line {lineno}: expected key = value, got {raw.strip()!r}"
                )
            if key not in _BY_KEY:
                raise ConfigurationError("unknown configuration key", field=key)
            if key in seen:
                raise ConfigurationError(f"line {lineno}: key already set on line {seen[key]}", field=key)
            seen[key] = lineno
            _apply(overrides, _BY_KEY[key], value.strip(), f"line {lineno}: ")
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equalab",
        description="Decision-feedback equalizer experiments: fixed-step vs. variable-step LMS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment and write curve/summary files")
    # Each flag keeps every value it is given, so that `main` can refuse a repeat.
    run.add_argument("--config", action="append", metavar="FILE", help="flat key=value config file")
    for s in SETTINGS:
        # A bare boolean flag means true; `--flag false` turns it off.
        bare = dict(nargs="?", const="true") if s.parse is _parse_bool else {}
        run.add_argument(s.flag, action="append", dest=s.key, metavar=s.metavar, help=s.help, **bare)
    return parser


def _last(given: list | None):
    """The last value a flag was given, or None if it was not given."""
    return given[-1] if given else None


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config of parsed `run` arguments.  Of a flag given more than once
    the last value counts here; `main` refuses the repeat."""
    overrides: dict = {}
    config = _last(args.config)
    if config:
        overrides.update(read_config_file(config))
    for s in SETTINGS:
        text = _last(getattr(args, s.key))
        if text is not None:
            _apply(overrides, s, text)
    return ExperimentConfig(**overrides)


def _refuse_repeated_flags(args: argparse.Namespace) -> None:
    """A flag given twice is an error, as a key set twice in a config file is."""
    for flag, key, field in [("--config", "config", None), *((s.flag, s.key, s.key) for s in SETTINGS)]:
        given = getattr(args, key) or []
        if len(given) > 1:
            raise ConfigurationError(f"{flag} given {len(given)} times", field=field)


def _print_report(record: RunRecord) -> None:
    cfg = record.config
    print(f"seeds: {len(cfg.seeds)}, symbols: {cfg.n_symbols}, mode: {cfg.mode}")
    for algo, curve in sorted(record.curves.items()):
        conv = curve.convergence_iter
        conv_txt = "not reached" if conv is None else f"@ iteration {conv}"
        print(
            f"{algo:>4}: steady-state MSE {curve.steady_state_mse:.6g}, "
            f"convergence {conv_txt}, BER {record.ber[algo]:.6g}"
        )
    if record.speedup is not None:
        print(f"speedup (lms/ilms convergence iterations): {record.speedup:.3g}")
    print(f"wrote {cfg.out_curves} and {cfg.out_summary}")


def _check_writable(path: str) -> None:
    """Raise OSError unless `path` names a file in an existing, writable directory."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)
    if not os.access(parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), parent)


def _same_file(a: str, b: str) -> bool:
    """Whether paths `a` and `b` name one file: alike once `..` and symbolic
    links are resolved, or two existing hard links to it, which realpath misses."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _refuse_repeated_flags(args)
        config = config_from_args(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return 2
    try:
        # Fail before the run, not after it, and write nothing.
        paths = (config.out_curves, config.out_summary)
        for path in paths:
            _check_writable(path)
        if _same_file(*paths):
            raise OSError(f"out_curves and out_summary name the same file: {config.out_summary!r}")
        source = _last(args.config)
        for name, path in zip(("out_curves", "out_summary"), paths):
            if source and _same_file(path, source):
                raise OSError(f"{name} names the config file: {path!r}")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
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
