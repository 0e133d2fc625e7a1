"""Seeded batch experiment harness.

One experiment runs every selected algorithm over every seed, averages the
squared-error curves pointwise across seeds (fold in ascending seed order),
and derives convergence / steady-state statistics from the ensemble curve.
Each seed's BER and final taps are kept per rule; the ensemble BER is their
mean.  Outputs are a learning-curve CSV and a flat key=value summary, both
byte-deterministic for a given config and whatever the block split.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _Numpy, __version__
from .dfe import ALGO_ILMS, ALGO_LMS, MODE_DECISION_DIRECTED, DfeConfig, equalize
from .errors import ConfigurationError, InputError, require_integer, require_real
from .metrics import LearningCurve, ber, learning_curve, speedup, steady_state_mse
from .txrx import apply_channel, generate_bpsk, taps

np = _Numpy(__name__)

# Noise streams are decoupled from symbol streams by a fixed seed offset so
# either can be held fixed independently.  Echoed in every summary.
NOISE_SEED_OFFSET = 10**9

# Moderate-ISI minimum-phase default.  Harder channels (or all-zero initial
# weights) make cold-start decision-directed runs collapse into the
# self-confirming fixed point where the equalizer predicts its own decisions
# and decouples from the data, which is why the harness defaults pair this
# channel with a center-spike start.
DEFAULT_CHANNEL = (0.84, 0.543)

# The largest count of each field, named as its error names it.  numpy shapes
# no array of more than 2^63 - 1 bytes.  A run's largest arrays are its curves
# CSV buffer, at most 76 bytes a symbol, and its per-seed tap tables, 8 bytes
# a seed and tap; 2^56 * 76 and (2^30 - 1)^2 * 8 are both below 2^63.
_MAX_COUNTS = (
    ("n_symbols", "n_symbols", 2**56), ("n_seeds", "seeds", 2**30 - 1),
    ("n_ff", "n_ff", 2**30 - 1), ("n_fb", "n_fb", 2**30 - 1),
)

# The equalizer settings: the fields of each rule's DfeConfig, under the same names.
_EQUALIZER = tuple(name for name in DfeConfig._fields if name != "algo")


class _ExperimentFields(NamedTuple):
    n_symbols: int = 5000
    channel: tuple[float, ...] = DEFAULT_CHANNEL
    snr_db: float | None = 20.0
    n_ff: int = 11
    n_fb: int = 5
    mu: float = 0.02
    algos: tuple[str, ...] = (ALGO_LMS, ALGO_ILMS)
    mode: str = MODE_DECISION_DIRECTED
    training_len: int = 0
    decision_delay: int | None = None
    n_seeds: int = 50
    base_seed: int = 1
    window: int = 50
    conv_ratio: float = 1.5
    tail_frac: float = 0.2
    step_floor: float = 0.0
    step_cap: float | None = None
    center_spike: bool = True
    jobs: int = 1
    out_curves: str = "curves.csv"
    out_summary: str = "summary.txt"


class ExperimentConfig(_ExperimentFields):
    """Every knob of one experiment; defaults are the standard desk-scale setup.

    Settings are stored as plain Python values.  `snr_db` None means a
    zero-noise channel.  The seeds are `n_seeds` consecutive integers from
    `base_seed`.  `jobs` is checked (>= 1) and otherwise unused.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        values = super().__new__(cls, *args, **kwargs)._asdict()  # the arguments by field, unchecked
        # A numpy count wraps or overflows in the run; float32 changes the tail and the noise.
        for name, field in (
            ("n_symbols", "n_symbols"), ("n_seeds", "seeds"), ("base_seed", "base_seed"),
            ("window", "window"), ("jobs", "jobs"),
        ):
            values[name] = require_integer(values[name], field)
        for name in ("conv_ratio", "tail_frac", *(() if values["snr_db"] is None else ["snr_db"])):
            values[name] = require_real(values[name], name)
        self = super().__new__(cls, **values)
        if self.n_symbols < 1:
            raise ConfigurationError("must be >= 1", field="n_symbols")
        if isinstance(self.algos, str):  # else "lms" would be read as the rules 'l', 'm' and 's'
            raise ConfigurationError(f"takes a sequence of rule names, got {self.algos!r}", field="algo")
        if len(self.algos) == 0:
            raise ConfigurationError("select at least one algorithm", field="algo")
        if len(set(self.algos)) != len(self.algos):
            raise ConfigurationError("duplicate algorithm", field="algo")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ConfigurationError("must be finite", field="snr_db")
        try:
            self.noise_variance  # 10 ** (-snr_db / 10) overflows a float
        except OverflowError:
            raise ConfigurationError(
                "must be above about -3082.5: the noise variance overflows", field="snr_db"
            ) from None
        if not 1 <= self.window <= self.n_symbols:
            raise ConfigurationError("must be in [1, n_symbols]", field="window")
        if not 0 < self.conv_ratio < math.inf:
            raise ConfigurationError("must be finite and > 0", field="conv_ratio")
        if not 0 < self.tail_frac <= 1:
            raise ConfigurationError("must be in (0, 1]", field="tail_frac")
        if self.n_seeds < 1:
            raise ConfigurationError("must be >= 1", field="seeds")
        if self.base_seed < 0:
            raise ConfigurationError("must be >= 0", field="base_seed")
        if self.jobs < 1:
            raise ConfigurationError("must be >= 1", field="jobs")
        # A non-empty tuple of finite Python floats, as the CLI and the default
        # give, is already what `taps` stores: it need not load numpy.
        channel = self.channel
        if not (type(channel) is tuple and channel and all(type(c) is float and math.isfinite(c) for c in channel)):
            try:
                values["channel"] = tuple(taps(channel).tolist())
            except ConfigurationError as exc:
                raise ConfigurationError(str(exc), field="channel") from None
        for a in self.algos:  # the rule and equalizer fields are DfeConfig's to check
            checked = self.dfe_config(a)
        for name in _EQUALIZER:  # as DfeConfig stored them
            values[name] = getattr(checked, name)
        values["algos"] = tuple(map(str, self.algos))
        self = super().__new__(cls, **values)
        for name, field, bound in _MAX_COUNTS:
            if getattr(self, name) > bound:
                raise ConfigurationError(f"must be <= {bound} so that the run's arrays can be shaped", field=field)
        skip = self.ber_skip
        if skip >= self.n_symbols:
            raise ConfigurationError(
                f"must be > ber_skip {skip} so that BER scores at least one symbol",
                field="n_symbols",
            )
        return self

    @classmethod
    def _make(cls, iterable):  # through `__new__`, so that `_replace` and `copy.replace` check too
        return cls(*iterable)

    @property
    def noise_variance(self) -> float:
        """AWGN variance relative to unit symbol power."""
        return 0.0 if self.snr_db is None else 10.0 ** (-self.snr_db / 10.0)

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(range(self.base_seed, self.base_seed + self.n_seeds))

    @property
    def noise_seeds(self) -> tuple[int, ...]:
        return tuple(s + NOISE_SEED_OFFSET for s in self.seeds)

    @property
    def ber_skip(self) -> int:
        """BER is scored over the final 80% of symbols (never inside the delay)."""
        delay = self.dfe_config(self.algos[0]).delay
        return max(delay, self.n_symbols - math.floor(0.8 * self.n_symbols))

    def dfe_config(self, algo: str) -> DfeConfig:
        return DfeConfig(algo=algo, **{name: getattr(self, name) for name in _EQUALIZER})


class SeedTable(NamedTuple):
    """One rule's outcome per seed, a row per seed in seed order: its BER,
    (S,), its final feed-forward and feedback taps, (S, n_ff) and
    (S, n_fb), and the step it settled to, (S,): its mean step over the
    final `tail_frac` of the run, which is mu for `lms`."""

    ber: np.ndarray
    ff_weights: np.ndarray
    fb_weights: np.ndarray
    settled_step: np.ndarray


class RunRecord(NamedTuple):
    """Everything needed to reproduce and re-derive one experiment's outputs:
    its config, each rule's ensemble curve and each rule's `SeedTable`."""

    config: ExperimentConfig
    curves: dict[str, LearningCurve]
    seeds: dict[str, SeedTable]

    @property
    def ber(self) -> dict[str, float]:
        """Each rule's mean BER over its seeds."""
        return {algo: float(np.mean(table.ber)) for algo, table in self.seeds.items()}

    @property
    def speedup(self) -> float | None:
        """convergence_iter(lms) / convergence_iter(ilms); None unless both
        rules ran and each converged at an iteration above 0."""
        conv = [self.curves[algo].convergence_iter for algo in (ALGO_LMS, ALGO_ILMS) if algo in self.curves]
        return speedup(*conv) if len(conv) == 2 else None


def draw(config: ExperimentConfig, seeds) -> tuple[np.ndarray, np.ndarray]:
    """The input of `seeds` in a run of `config`: (tx, rx), the symbols and
    the received samples, each (len(seeds), n_symbols).  Seed s draws its
    symbols from s and its noise from s + NOISE_SEED_OFFSET."""
    tx = np.empty((len(seeds), config.n_symbols))
    rx = np.empty_like(tx)
    for k, s in enumerate(seeds):
        tx[k] = generate_bpsk(config.n_symbols, s)
        rx[k] = apply_channel(tx[k], config.channel, config.noise_variance, s + NOISE_SEED_OFFSET)
    return tx, rx


def effective_steps(errors: np.ndarray, cfg: DfeConfig) -> np.ndarray:
    """The step each iteration of `cfg`'s rule took, from signed errors that
    `equalize` returns, (rows, N) or one row: mu for `lms`; for `ilms`
    mu * max(|e(n) - e(n-1)|, step_floor) with e(-1) = 0, capped at
    step_cap, the formula both loops step with."""
    if cfg.algo == ALGO_LMS:
        return np.full(errors.shape, cfg.mu)
    steps = cfg.mu * np.maximum(np.abs(np.diff(errors, prepend=0.0)), cfg.step_floor)
    return steps if cfg.step_cap is None else np.minimum(steps, cfg.step_cap)


# Most rows x symbols one `equalize` call steps at once; a run steps its
# blocks one after another in this process.  The bound is on memory: on
# either kernel, in either mode and whatever the tail, a block holds four
# float64 arrays of that shape at once (tx, rx and the equalizer's decisions
# and errors; both loops read rx in place, and a training preamble is
# written into the errors), since each seed is scored a row at a time and
# each rule's rows are freed before the next rule runs.  tracemalloc's peak
# for one 2^20-element block (64 seeds x 16384 symbols, both rules) is
# 32.5 MiB on both kernels, at `--tail-frac 1` too, and 33.3 MiB trained
# over the whole block.  The compiled kernel costs the same per row and step
# whatever the block; the numpy fallback pays its per-step overhead once per
# block, so larger blocks make it faster.  Runs longer than this step one
# seed at a time.
_BLOCK_ELEMENTS = 2**20


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Run all seeds and algorithms and aggregate into curves and statistics.

    The seeds run in this process in contiguous blocks of at most
    `_BLOCK_ELEMENTS` samples (rows x symbols), each with its own `draw`.
    Each seed is scored in one pass over its row of each rule: its squared
    errors are added to the rule's sum in seed order, as np.mean(axis=0)
    adds them, so the sum over the seed count has the bytes of the mean of
    all rows at once, whatever the split, without keeping them; its BER,
    final taps and settled step (read from its signed errors) fill its row
    of the rule's `SeedTable`.  A run fails at its first non-finite sample,
    else at its first non-finite error, else at its first squared error
    that overflows; the InputError raised names the first failed run in the
    order seed, then algorithm, whatever the split.  `config.jobs` changes
    nothing.
    """
    seeds, n, skip = config.seeds, config.n_symbols, config.ber_skip
    sums = {algo: np.zeros(n) for algo in config.algos}
    shapes = (len(seeds),), (len(seeds), config.n_ff), (len(seeds), config.n_fb), (len(seeds),)
    tables = {algo: SeedTable(*map(np.empty, shapes)) for algo in config.algos}
    rows = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, len(seeds), rows):
        block = seeds[lo : lo + rows]
        tx, rx = draw(config, block)
        # Only the first row with a non-finite sample fails (under the first
        # rule, as `equalize` raises); later rows never run.
        ok = next((row for row, r in enumerate(rx) if not np.isfinite(r).all()), len(block))
        failures = []
        if ok < len(block):
            failures.append((ok, 0, config.algos[0], _first_non_finite(rx[ok], "non-finite sample")))
        for k, algo in enumerate(config.algos if ok else ()):
            cfg, table = config.dfe_config(algo), tables[algo]
            errors, decisions, ff, fb = equalize(rx[:ok], cfg, tx[:ok])
            table.ff_weights[lo : lo + ok], table.fb_weights[lo : lo + ok] = ff, fb
            with np.errstate(over="ignore", invalid="ignore"):  # a failed run's numbers are not kept
                for i, (e, d, t) in enumerate(zip(errors, decisions, tx)):
                    sq = e * e
                    if not np.isfinite(sq).all():  # a finite square implies a finite error
                        # The quantizer input y is non-finite where e = reference - y is.
                        why = _first_non_finite(e, "non-finite quantizer input")
                        failures.append((i, k, algo, why or _first_non_finite(sq, "squared error overflows")))
                    sums[algo] += sq
                    table.ber[lo + i] = ber(d, t, cfg.delay, skip)
                    table.settled_step[lo + i] = (
                        cfg.mu if algo == ALGO_LMS else steady_state_mse(effective_steps(e, cfg), config.tail_frac)
                    )
            del errors, decisions, e, d, t, sq  # d and t view the feedback buffer and tx: free all
        del tx, rx  # free the block before the next one is drawn
        if failures:
            row, _, algo, why = min(failures, key=lambda f: f[:2])
            raise InputError(f"algorithm {algo}, seed {block[row]}: {why}")

    curves = {
        algo: learning_curve(sums[algo] / len(seeds), config.window, config.conv_ratio, config.tail_frac)
        for algo in config.algos
    }
    return RunRecord(config=config, curves=curves, seeds=tables)


def _first_non_finite(a: np.ndarray, what: str) -> str | None:
    """"`what` at iteration i" for the row `a` whose first non-finite entry is i; None if it has none."""
    bad = ~np.isfinite(a)
    return f"{what} at iteration {int(bad.argmax())}" if bad.any() else None


def emit_curves_csv(record: RunRecord, path) -> None:
    """Write the ensemble curves: iteration,algo,inst_sq_error,smoothed_mse.

    Rows are sorted by (algo, iteration).  The smoothed column is empty for
    the trailing window-1 iterations where the forward window runs off the
    end of the curve.  Values have the 17 significant digits of
    format(x, ".17g"), which round-trip float64 exactly, written by the
    writer that `_kernel.load` chose.
    """
    from . import _kernel  # here: a process that only imports equalab never loads it

    rows = _kernel.load().rows
    with open(path, "wb") as fh:
        fh.write(b"iteration,algo,inst_sq_error,smoothed_mse\n")
        for algo in sorted(record.curves):
            curve = record.curves[algo]
            sq, smoothed = (np.ascontiguousarray(a, np.float64) for a in (curve.sq_errors, curve.smoothed))
            fh.write(rows(algo, sq, smoothed))


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_summary(record: RunRecord, path) -> None:
    """Write the flat key=value summary: full config echo, seeds, statistics.

    Every field that influences the numbers is echoed (jobs is not: it
    changes nothing about a run).  The speedup line is omitted when
    `record.speedup` is None: a rule missing, unconverged, or converged at 0.
    """
    cfg = record.config
    lines = [
        ("tool_version", __version__),
        ("n_symbols", cfg.n_symbols),
        ("channel", ",".join(map(repr, cfg.channel))),
        ("snr_db", cfg.snr_db),
        ("noise_variance", cfg.noise_variance),
        ("n_ff", cfg.n_ff),
        ("n_fb", cfg.n_fb),
        ("mu", cfg.mu),
        ("algo", ",".join(cfg.algos)),
        ("mode", cfg.mode),
        ("training_len", cfg.training_len),
        ("decision_delay", cfg.dfe_config(cfg.algos[0]).delay),
        ("center_spike", cfg.center_spike),
        ("step_floor", cfg.step_floor),
        ("step_cap", cfg.step_cap),
        ("window", cfg.window),
        ("conv_ratio", cfg.conv_ratio),
        ("tail_frac", cfg.tail_frac),
        ("ber_skip", cfg.ber_skip),
        ("noise_seed_offset", NOISE_SEED_OFFSET),
        ("symbol_seeds", ",".join(str(s) for s in cfg.seeds)),
        ("noise_seeds", ",".join(str(s) for s in cfg.noise_seeds)),
    ]
    for algo in sorted(record.curves):
        curve = record.curves[algo]
        lines.append((f"{algo}.steady_state_mse", float(curve.steady_state_mse)))
        lines.append((f"{algo}.convergence_iter", curve.convergence_iter))
        lines.append((f"{algo}.ber", float(record.ber[algo])))
    if record.speedup is not None:
        lines.append(("speedup", float(record.speedup)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(f"{k} = {_fmt(v)}" for k, v in lines) + "\n")
