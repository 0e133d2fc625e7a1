"""Decision-feedback equalizer state machine.

Per received sample: the feed-forward filter runs on the received history,
the feedback filter output (driven by past hard decisions) is subtracted,
the result y is quantized to +/-1, and the error e = reference - y drives
the weight update.  In decision-directed mode the reference is the quantizer
output itself; a training preamble can use the true (delayed) transmitted
symbols instead.  Because the feedback output is subtracted, the feedback
filter's gradient regressor is the negated decision history; this module is
the only one that knows that sign.

State is an explicit value: each `dfe_step` returns a fresh `DfeState` plus
a `StepTrace` of what happened, so runs are replayable and side-effect free.
`dfe_step` is the executable specification, built from the `dsp` and
`adapt` primitives.  Whole runs go through `equalize`, which steps a batch
of independent runs in lockstep and reproduces `dfe_step` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .adapt import AdaptParams, effective_step, lms_update
from .dsp import DelayLine, TapWeights, delay_line, dot, shift_in
from .errors import ConfigurationError, InputError, require_integer

# The two adaptation rules: fixed-step LMS and error-difference-scaled LMS.
ALGO_LMS = "lms"
ALGO_ILMS = "ilms"
MODE_DECISION_DIRECTED = "decision_directed"
MODE_TRAINED = "trained"

# Reference used during a training preamble while the decision delay still
# points before the start of the transmitted sequence (at most `delay`
# cold-start steps, where the weights are still essentially zero).
PAD_SYMBOL = 1.0


@dataclass(frozen=True, slots=True)
class DfeConfig:
    """Static equalizer configuration.

    `decision_delay` is the lag of the reference symbol relative to the
    current received sample; None selects the FF half-length (see `delay`).
    `training_len` must be 0 in decision-directed mode.  `params` is the
    validated step-size setting, built once here.
    """

    n_ff: int
    n_fb: int
    mu: float
    algo: str = ALGO_LMS
    mode: str = MODE_DECISION_DIRECTED
    training_len: int = 0
    decision_delay: int | None = None
    step_floor: float = 0.0
    step_cap: float | None = None
    center_spike: bool = False
    params: AdaptParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_ff", "n_fb", "training_len"):
            require_integer(getattr(self, name), name)
        if self.n_ff < 1:
            raise ConfigurationError("must be >= 1", field="n_ff")
        if self.n_fb < 0:
            raise ConfigurationError("must be >= 0", field="n_fb")
        if self.algo not in (ALGO_LMS, ALGO_ILMS):
            raise ConfigurationError(
                f"unknown algorithm {self.algo!r} (choose from {ALGO_LMS},{ALGO_ILMS})",
                field="algo",
            )
        if self.mode not in (MODE_DECISION_DIRECTED, MODE_TRAINED):
            raise ConfigurationError(f"unknown mode {self.mode!r}", field="mode")
        if self.training_len < 0:
            raise ConfigurationError("must be >= 0", field="training_len")
        if self.mode == MODE_DECISION_DIRECTED and self.training_len != 0:
            raise ConfigurationError("must be 0 in decision-directed mode", field="training_len")
        if self.decision_delay is not None:
            require_integer(self.decision_delay, "decision_delay")
            if self.decision_delay < 0:
                raise ConfigurationError("must be >= 0", field="decision_delay")
        object.__setattr__(self, "params", AdaptParams(self.mu, self.step_floor, self.step_cap))
        if self.center_spike and not self.delay < self.n_ff:
            raise ConfigurationError(
                "center-spike initialization needs decision_delay < n_ff", field="decision_delay"
            )

    @property
    def delay(self) -> int:
        """Resolved reference delay."""
        return (self.n_ff - 1) // 2 if self.decision_delay is None else self.decision_delay


class DfeState(NamedTuple):
    """Full equalizer state between steps.

    `fb_line` holds the most recent hard decisions, newest first;
    `prev_error` is e(n-1) for the variable-step rule, 0 before the first step.
    """

    ff_weights: TapWeights
    fb_weights: TapWeights
    ff_line: DelayLine
    fb_line: DelayLine
    prev_error: float = 0.0
    iteration: int = 0


class StepTrace(NamedTuple):
    """What one step did: output y (FF minus FB), decision, error, step size applied."""

    iteration: int
    combiner_out: float
    decision: float
    error: float
    effective_step: float


def initial_state(cfg: DfeConfig) -> DfeState:
    """Fresh state: zero weights and lines, optional unit spike at the delay tap."""
    ff = np.zeros(cfg.n_ff, dtype=np.float64)
    if cfg.center_spike:
        ff[cfg.delay] = 1.0
    return DfeState(ff, np.zeros(cfg.n_fb, dtype=np.float64), delay_line(cfg.n_ff), delay_line(cfg.n_fb))


def quantize(y: float) -> float:
    """Hard decision: +1 for positive input, -1 for negative, +1 at exactly 0."""
    if not math.isfinite(y):
        raise InputError(f"non-finite quantizer input: {y!r}")
    return 1.0 if y >= 0.0 else -1.0


def dfe_step(
    state: DfeState, r: float, true_symbol: float | None, cfg: DfeConfig
) -> tuple[StepTrace, DfeState]:
    """Advance the equalizer by one received sample `r`.

    `true_symbol` is the delayed transmitted symbol and is required (and
    used as the error reference) only while `cfg.mode` is trained and the
    iteration count is below `cfg.training_len`; otherwise the quantizer
    decision is the reference.  Weight updates use the regressors that
    produced y (the shifted FF line and the pre-decision FB line); the new
    decision enters the FB line afterwards.
    """
    ff_line = shift_in(state.ff_line, r)
    y = dot(state.ff_weights, ff_line) - dot(state.fb_weights, state.fb_line)
    d = quantize(y)
    if cfg.mode == MODE_TRAINED and state.iteration < cfg.training_len:
        if true_symbol is None:
            raise InputError(f"training reference required at iteration {state.iteration}")
        reference = float(true_symbol)
        if reference not in (1.0, -1.0):
            raise InputError(f"training reference must be +1 or -1, got {true_symbol!r}")
    else:
        reference = d
    e = reference - y
    step = effective_step(cfg.params, e, state.prev_error) if cfg.algo == ALGO_ILMS else cfg.params.mu
    ff_w = lms_update(state.ff_weights, ff_line, e, step)
    fb_w = lms_update(state.fb_weights, -state.fb_line, e, step)  # y subtracts the FB output
    nxt = DfeState(ff_w, fb_w, ff_line, shift_in(state.fb_line, d), e, state.iteration + 1)
    return StepTrace(state.iteration, y, d, e, step), nxt


def equalize(received, cfg: DfeConfig, transmitted=None):
    """Run S independent equalizers in lockstep, one per row of `received`.

    `received` is (S, N).  In trained mode row s uses transmitted[s] as its
    reference symbols, so `transmitted` is (S, M); the reference for
    iteration n is transmitted[s, n - delay] (+1 while n < delay), and after
    `training_len` iterations every row switches to its own decisions.

    Each row is bit-identical to stepping it alone through `dfe_step`: every
    step forms the same products and sums them in the order of `dsp.dot`,
    0.0 and then each product in tap order.

    The steps run in the loop that `_kernel.load` chose; `KERNEL` names it.

    Returns the loop's buffers (errors, decisions, ff_weights, fb_weights):
    the signed errors and decisions, (S, N), and each row's final taps.  A
    diverging row comes back non-finite from the step where `dfe_step`
    raises; InputError is for bad input only: the shape, an empty batch, a
    non-finite sample (its first row and iteration) or a training reference.
    """
    rx = np.asarray(received, dtype=np.float64)
    if rx.ndim != 2:
        raise InputError("received batch must be 2-D: one row per run")
    if rx.size == 0:
        raise InputError("received sequence is empty")
    if not np.isfinite(rx).all():
        row, i = (int(k) for k in np.argwhere(~np.isfinite(rx))[0])
        raise InputError(f"non-finite sample at iteration {i}", row=row)
    from . import _kernel  # here: a process that only imports equalab never loads it

    _, D, W, B, E = _lockstep(_kernel.load().lockstep, rx, cfg, transmitted)
    return E, D[:, rx.shape[1] - 1 :: -1], W, B  # a view: time runs backwards in D


def _lockstep(loop, rx: np.ndarray, cfg: DfeConfig, transmitted):
    """Set up the buffers of `equalize` for (S, N) `rx`, run `loop` over them
    and return them: R, D, W, B and E (the errors, not yet squared)."""
    rows, n = rx.shape
    delay = cfg.delay
    train = min(cfg.training_len, n)  # 0 in decision-directed mode
    refs = _training_references(transmitted, rows, train, delay) if train else np.empty((0, rows))
    cap = math.inf if cfg.step_cap is None else cfg.step_cap

    # Newest-first delay lines are contiguous windows, so nothing is ever
    # shifted: R holds each row reversed and zero-padded, and the FF line at
    # step i is R[:, n-1-i : n-1-i+n_ff]; decision i is written to
    # D[:, n-1-i], so the FB line at step i is D[:, n-i : n-i+n_fb].
    R = np.zeros((rows, n + cfg.n_ff - 1))
    R[:, :n] = rx[:, ::-1]
    D = np.zeros((rows, n + cfg.n_fb))
    W = np.zeros((rows, cfg.n_ff))
    if cfg.center_spike:
        W[:, delay] = 1.0
    B = np.zeros((rows, cfg.n_fb))
    E = np.empty((rows, n))
    loop(R, D, W, B, E, refs, cfg.mu, cfg.algo == ALGO_ILMS, cfg.step_floor, cap)
    return R, D, W, B, E


def __getattr__(name):
    # KERNEL, read-only: "c" or "numpy", the name of `_kernel.load()` (chosen now if not yet).
    if name == "KERNEL":
        from . import _kernel

        return _kernel.load().name
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _training_references(transmitted, rows: int, train: int, delay: int) -> np.ndarray:
    """The reference symbols of the first `train` iterations, (train, rows)."""
    if transmitted is None:
        raise InputError("trained mode requires the transmitted symbols")
    tx = np.asarray(transmitted, dtype=np.float64)
    if tx.ndim != 2 or tx.shape[0] != rows:
        raise InputError("transmitted batch must have one row per received row")
    if tx.shape[1] + delay < train:
        raise InputError("transmitted sequence too short for the training preamble")
    refs = np.full((train, rows), PAD_SYMBOL)
    refs[delay:] = tx[:, : max(train - delay, 0)].T
    bad = (refs != 1.0) & (refs != -1.0)
    if bad.any():
        row, i = (int(k) for k in np.argwhere(bad.T)[0])
        raise InputError(
            f"training reference must be +1 or -1, got {refs[i, row]!r} at iteration {i}",
            row=row,
        )
    return refs
