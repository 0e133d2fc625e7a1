"""Command-line harness: `equalab run` with config-file and flag overrides.

Config files are flat `key = value` UTF-8 text ('#' starts a comment).  Every
setting is one row of `SETTINGS` below: its file key, its flag, and the one
parser both go through.  Command-line flags win over file entries, which win
over built-in defaults.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import re
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


def _stdout():
    """`sys.stdout`, or the OSError of a write to a closed descriptor: Python
    sets `sys.stdout` to None when it starts with file descriptor 1 closed."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value may start with a negative number: argparse's own matcher reads `-0.5,0.9` as an option.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def print_help(self, file=None):  # argparse's own writer drops an OSError
        (file or _stdout()).write(self.format_help())

    def parse_known_args(self, args=None, namespace=None):
        # Each parser refuses what it does not know, so `run --bogus` shows
        # `run`'s usage; argparse would hand it up to the top-level usage.
        known, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return known, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    if config is not None:  # "" too: a path that names no file
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
    """Raise OSError unless `open(path, "wb")` may write `path` once its
    symbolic links are resolved: an existing file must be writable itself, a
    new one needs an existing, writable directory."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    real = os.path.realpath(path)
    if os.path.islink(real):  # realpath stops at a link it cannot resolve: a loop
        raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
    parent = os.path.dirname(real)
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)
    target = real if os.path.exists(real) else parent
    if not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)


def _same_file(a: str, b: str) -> bool:
    """Whether paths `a` and `b` name one file: alike once `..` and symbolic
    links are resolved, or two existing hard links to it, which realpath misses."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def main(argv=None) -> int:
    prepared = _prepare(argv)
    return prepared if isinstance(prepared, int) else _run(prepared)


def _prepare(argv) -> ExperimentConfig | int:
    """The config of `argv` once its outputs are checked, or the exit code
    and error line of its refusal: 2 for a setting, 1 for an output."""
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
    return config


def _run(config: ExperimentConfig) -> int:
    """Run the checked `config`, write its outputs and report: its exit code."""
    try:
        record = run_experiment(config)
    except (InputError, MemoryError) as exc:  # numpy's MemoryError names the allocation; Python's is empty
        print(f"error: run failed: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    try:
        emit_curves_csv(record, config.out_curves)
        emit_summary(record, config.out_summary)
        _print_report(record)
        _stdout().flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> int:
    """The process entry of `equalab` and `python -m equalab.cli`: `main` on
    `sys.argv`, with numpy imported and `gc.freeze()` called once the config
    and the outputs pass their checks, just before the run.

    The freeze moves every object alive then (numpy's and equalab's modules,
    functions and tables, which live until exit) out of the collector's
    reach, so neither the run's collections nor the full ones at interpreter
    exit walk them again.  Importing equalab does not load numpy, so the
    entry does, to freeze numpy's objects too; `--help`, a refused setting
    or an unwritable output exits without loading it.  Only the entry
    freezes: `main` also runs in long processes, where frozen cyclic garbage
    would never be freed.

    A stdout that cannot take the help text or the report, full or closed,
    gives exit 1 and one error line, as an output file that cannot be
    written does.
    """
    code = None
    try:
        try:
            config = _prepare(None)
            if isinstance(config, int):
                code = config
            else:
                import numpy  # noqa: F401

                gc.freeze()
                code = _run(config)
        except SystemExit as exc:  # argparse's, after --help or a usage error
            code = exc.code
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != 1:  # else `_run` has reported that its report failed
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 1
        # Drop what stdout still holds, or the interpreter's own flush at
        # exit fails again and exits 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    return code


if __name__ == "__main__":
    sys.exit(entry())
