"""Seeded batch experiment harness.

One experiment runs every selected algorithm over every seed, averages the
squared-error curves pointwise across seeds (fold in ascending seed order),
and derives convergence / steady-state / BER statistics from the ensemble
curve.  Outputs are a learning-curve CSV and a flat key=value summary, both
byte-deterministic for a given config, including under parallel execution.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dfe import ALGO_ILMS, ALGO_LMS, MODE_DECISION_DIRECTED, DfeConfig, equalize
from .errors import ConfigurationError, InputError
from .metrics import LearningCurve, ber, learning_curve, speedup
from .txrx import ChannelModel, apply_channel, generate_bpsk

# Noise streams are decoupled from symbol streams by a fixed seed offset so
# either can be held fixed independently.  Echoed in every summary.
NOISE_SEED_OFFSET = 10**9

# Moderate-ISI minimum-phase default.  Harder channels (or all-zero initial
# weights) make cold-start decision-directed runs collapse into the
# self-confirming fixed point where the equalizer predicts its own decisions
# and decouples from the data, which is why the harness defaults pair this
# channel with a center-spike start.
DEFAULT_CHANNEL = (0.84, 0.543)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one experiment; defaults are the standard desk-scale setup.

    `snr_db` None means a zero-noise channel.  The seeds are `n_seeds`
    consecutive integers from `base_seed`.
    """

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

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ConfigurationError("must be >= 1", field="n_symbols")
        if not self.algos:
            raise ConfigurationError("select at least one algorithm", field="algo")
        if len(set(self.algos)) != len(self.algos):
            raise ConfigurationError("duplicate algorithm", field="algo")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ConfigurationError("must be finite", field="snr_db")
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
        # Channel, rule and equalizer field checks live with their owning types.
        ChannelModel(np.asarray(self.channel, dtype=np.float64), self.noise_variance)
        for a in self.algos:
            self.dfe_config(a)
        skip = self.ber_skip
        if skip >= self.n_symbols:
            raise ConfigurationError(
                f"must be > ber_skip {skip} so that BER scores at least one symbol",
                field="n_symbols",
            )

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
        return DfeConfig(
            n_ff=self.n_ff,
            n_fb=self.n_fb,
            mu=self.mu,
            algo=algo,
            mode=self.mode,
            training_len=self.training_len,
            decision_delay=self.decision_delay,
            step_floor=self.step_floor,
            step_cap=self.step_cap,
            center_spike=self.center_spike,
        )


@dataclass(frozen=True)
class RunRecord:
    """Everything needed to reproduce and re-derive one experiment's outputs.

    `ber` is each rule's mean BER over the seeds; `speedup` is
    convergence_iter(lms) / convergence_iter(ilms), None unless both rules
    ran and converged.
    """

    config: ExperimentConfig
    curves: dict[str, LearningCurve]
    ber: dict[str, float]
    speedup: float | None


# Most rows x symbols one `equalize` call steps at once.  The bound is on
# memory: a block holds about six float64 arrays of that shape (tx, rx, the
# equalizer's buffers and the previous rule's squared errors), about 48 MB
# here, and the fold keeps no block once it is summed.  The compiled kernel
# costs the same per row and step whatever the block; the numpy fallback
# pays its per-step overhead once per block, so larger blocks make it
# faster.  Runs longer than this step one seed at a time.
_BLOCK_ELEMENTS = 2**20


def _run_block(
    config: ExperimentConfig, seeds: tuple[int, ...]
) -> dict[str, tuple[np.ndarray, list[float]]]:
    """One block of seeds, every algorithm: {algo: ((rows, N) squared errors, BERs)}.

    The block draws its own symbols and noise, so with `jobs` > 1 only the
    pool workers load numpy.random.  A run that fails raises the InputError
    the serial order (seed, then algorithm) would meet first.
    """
    channel = np.asarray(config.channel, dtype=np.float64)
    n = config.n_symbols
    skip = config.ber_skip
    tx = np.empty((len(seeds), n))
    rx = np.empty_like(tx)
    for k, s in enumerate(seeds):
        tx[k] = generate_bpsk(n, s)
        noise = ChannelModel(channel, config.noise_variance, s + NOISE_SEED_OFFSET)
        rx[k] = apply_channel(tx[k], noise)
    out: dict[str, tuple[np.ndarray, list[float]]] = {}
    failures = []
    for k, algo in enumerate(config.algos):
        cfg = config.dfe_config(algo)
        try:
            e, decisions = equalize(rx, cfg, tx)
        except InputError as exc:
            failures.append((exc.row or 0, k, algo, exc))  # no row: the whole block
            continue
        out[algo] = (e, [ber(d, t, cfg.delay, skip) for d, t in zip(decisions, tx)])
        del decisions  # a view of the feedback buffer: drop it before the next rule runs
    if failures:
        row, _, algo, exc = min(failures, key=lambda f: f[:2])
        raise InputError(f"algorithm {algo}, seed {seeds[row]}: {exc}") from None
    return out


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Run all seeds and algorithms and aggregate into curves and statistics.

    The seeds are split into contiguous blocks of at most `_BLOCK_ELEMENTS`
    samples (rows x symbols) and at most ceil(seeds / jobs) rows.  With
    `config.jobs` > 1 and more than one block, each block is one pool task,
    run by at most one worker per CPU this process may use.  Rows are summed
    in seed order as their block arrives, so the fold is the same sum in the
    same order whatever the split, and the first failure raised is the first
    in serial order.
    """
    seeds = config.seeds
    rows = max(1, min(_BLOCK_ELEMENTS // config.n_symbols, math.ceil(len(seeds) / config.jobs)))
    blocks = [seeds[lo : lo + rows] for lo in range(0, len(seeds), rows)]
    if config.jobs > 1 and len(blocks) > 1:
        # One process would run many short seeds faster, but it would import
        # numpy.random itself, which raises the run's peak RSS by about 5.6 MB.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(blocks), cpus or 1)) as pool:
            sums, seed_bers = _fold(pool.map(_run_block, itertools.repeat(config), blocks), config)
    else:
        sums, seed_bers = _fold((_run_block(config, b) for b in blocks), config)

    curves: dict[str, LearningCurve] = {}
    bers: dict[str, float] = {}
    for algo in config.algos:
        ensemble = sums[algo] / len(seeds)
        curves[algo] = learning_curve(ensemble, config.window, config.conv_ratio, config.tail_frac)
        bers[algo] = float(np.mean(seed_bers[algo]))
    ratio = None
    if ALGO_LMS in curves and ALGO_ILMS in curves:
        ratio = speedup(curves[ALGO_LMS].convergence_iter, curves[ALGO_ILMS].convergence_iter)
    return RunRecord(config=config, curves=curves, ber=bers, speedup=ratio)


def _fold(parts, config: ExperimentConfig) -> tuple[dict[str, np.ndarray], dict[str, list[float]]]:
    """Per algorithm, the sum of the squared-error rows and the list of BERs
    of the blocks in `parts`, each block added as it arrives.

    The rows are added to zeros one at a time in seed order, as
    np.mean(axis=0) adds them, so the sum divided by the seed count has the
    bytes of the mean of all rows at once, without keeping them.
    """
    sums = {algo: np.zeros(config.n_symbols) for algo in config.algos}
    bers: dict[str, list[float]] = {algo: [] for algo in config.algos}
    for part in parts:
        for algo in config.algos:
            sq, block_bers = part.pop(algo)
            for k in range(len(sq)):
                sums[algo] += sq[k]
            bers[algo].extend(block_bers)
            del sq  # the block's rows are summed: free them before the next block runs
    return sums, bers


def _g17(x) -> str:
    """17 significant digits: round-trips float64 exactly."""
    return format(float(x), ".17g")


def emit_curves_csv(record: RunRecord, path) -> None:
    """Write the ensemble curves: iteration,algo,inst_sq_error,smoothed_mse.

    Rows are sorted by (algo, iteration).  The smoothed column is empty for
    the trailing window-1 iterations where the forward window runs off the
    end of the curve.
    """
    lines = ["iteration,algo,inst_sq_error,smoothed_mse"]
    for algo in sorted(record.curves):
        curve = record.curves[algo]
        m = curve.smoothed.size
        for i, v in enumerate(curve.sq_errors):
            tail = _g17(curve.smoothed[i]) if i < m else ""
            lines.append(f"{i},{algo},{_g17(v)},{tail}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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

    Every field that influences the numbers is echoed (jobs is not: the fold
    order is fixed, so the worker count cannot change any output byte).  The
    speedup line is omitted when it is undefined (an algorithm missing or
    unconverged).
    """
    cfg = record.config
    lines = [
        ("tool_version", __version__),
        ("n_symbols", cfg.n_symbols),
        ("channel", ",".join(repr(float(c)) for c in cfg.channel)),
        ("snr_db", None if cfg.snr_db is None else float(cfg.snr_db)),
        ("noise_variance", float(cfg.noise_variance)),
        ("n_ff", cfg.n_ff),
        ("n_fb", cfg.n_fb),
        ("mu", float(cfg.mu)),
        ("algo", ",".join(cfg.algos)),
        ("mode", cfg.mode),
        ("training_len", cfg.training_len),
        ("decision_delay", cfg.dfe_config(cfg.algos[0]).delay),
        ("center_spike", cfg.center_spike),
        ("step_floor", float(cfg.step_floor)),
        ("step_cap", None if cfg.step_cap is None else float(cfg.step_cap)),
        ("window", cfg.window),
        ("conv_ratio", float(cfg.conv_ratio)),
        ("tail_frac", float(cfg.tail_frac)),
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
