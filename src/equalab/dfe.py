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
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .adapt import effective_step, lms_update
from .dsp import delay_line, dot, shift_in
from .errors import ConfigurationError, InputError, require_integer, require_real

if TYPE_CHECKING:
    import numpy as np

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
    """Static equalizer configuration, stored as plain Python values.

    `decision_delay` is the lag of the reference symbol relative to the
    current received sample; None selects the FF half-length (see `delay`).
    `training_len` must be 0 in decision-directed mode.  `step_floor` and
    `step_cap` (0 and None: off) bound the `ilms` step; see `effective_step`.
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

    def __post_init__(self):
        for name in ("n_ff", "n_fb", "training_len"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        for name in ("mu", "step_floor", *(() if self.step_cap is None else ["step_cap"])):
            object.__setattr__(self, name, require_real(getattr(self, name), name))
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
            object.__setattr__(self, "decision_delay", require_integer(self.decision_delay, "decision_delay"))
            if self.decision_delay < 0:
                raise ConfigurationError("must be >= 0", field="decision_delay")
        if not 0 < self.mu < math.inf:
            raise ConfigurationError("must be finite and > 0", field="mu")
        if not 0 <= self.step_floor < math.inf:
            raise ConfigurationError("must be finite and >= 0", field="step_floor")
        if self.step_cap is not None and (
            not 0 < self.step_cap < math.inf or self.step_cap < self.mu * self.step_floor
        ):
            raise ConfigurationError("must be finite, > 0 and >= mu * step_floor", field="step_cap")
        if not isinstance(self.center_spike, bool):  # "false" would be truthy
            import numpy as np

            if not isinstance(self.center_spike, np.bool_):
                raise ConfigurationError(f"must be a bool, got {self.center_spike!r}", field="center_spike")
        if self.center_spike and not self.delay < self.n_ff:
            raise ConfigurationError(
                "center-spike initialization needs decision_delay < n_ff", field="decision_delay"
            )
        for name, plain in (("algo", str), ("mode", str), ("center_spike", bool)):  # numpy's str_ and bool_
            object.__setattr__(self, name, plain(getattr(self, name)))

    @property
    def delay(self) -> int:
        """Resolved reference delay."""
        return (self.n_ff - 1) // 2 if self.decision_delay is None else self.decision_delay


class DfeState(NamedTuple):
    """Full equalizer state between steps.

    `fb_line` holds the most recent hard decisions, newest first;
    `prev_error` is e(n-1) for the variable-step rule, 0 before the first step.
    """

    ff_weights: np.ndarray
    fb_weights: np.ndarray
    ff_line: np.ndarray
    fb_line: np.ndarray
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
    import numpy as np

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
    step = effective_step(cfg, e, state.prev_error) if cfg.algo == ALGO_ILMS else cfg.mu
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
    the signed errors and decisions, (S, N), in time order (the decisions a
    view of the loop's FB buffer), and each row's final taps.  A
    diverging row comes back non-finite from the step where `dfe_step`
    raises; InputError is for bad input only: the shape, an empty batch, a
    non-finite sample (its first row and iteration) or a training reference.
    """
    import numpy as np

    rx = np.asarray(received, dtype=np.float64, order="C")  # a copy only if not C-ordered yet
    if rx.ndim != 2:
        raise InputError("received batch must be 2-D: one row per run")
    if rx.size == 0:
        raise InputError("received sequence is empty")
    if not np.isfinite(rx).all():
        row, i = (int(k) for k in np.argwhere(~np.isfinite(rx))[0])
        raise InputError(f"non-finite sample at iteration {i}", row=row)
    from . import _kernel  # here: a process that only imports equalab never loads it

    D, W, B, E = _lockstep(_kernel.load().lockstep, rx, cfg, transmitted)
    return E, D[:, cfg.n_fb :], W, B  # a view: D's first n_fb columns are the FB line's zeros


def _lockstep(loop, rx: np.ndarray, cfg: DfeConfig, transmitted):
    """Run `loop` over (S, N) `rx`, which it only reads, and the buffers of
    `equalize`, set up here; return those: D, W, B and E (the errors, not
    yet squared)."""
    import numpy as np

    rows, n = rx.shape
    delay = cfg.delay
    train = min(cfg.training_len, n)  # 0 in decision-directed mode
    E = np.empty((rows, n))
    if train:  # the references of the first `train` steps: PAD_SYMBOL, then tx[:, :train - delay]
        if transmitted is None:
            raise InputError("trained mode requires the transmitted symbols")
        tx = np.asarray(transmitted, dtype=np.float64)
        if tx.ndim != 2 or tx.shape[0] != rows:
            raise InputError("transmitted batch must have one row per received row")
        if tx.shape[1] + delay < train:
            raise InputError("transmitted sequence too short for the training preamble")
        preamble = E[:, :train]
        preamble[:, :delay] = PAD_SYMBOL
        preamble[:, delay:] = tx[:, : max(train - delay, 0)]
        bad = (preamble != 1.0) & (preamble != -1.0)
        if bad.any():
            row, i = (int(k) for k in np.argwhere(bad)[0])
            raise InputError(
                f"training reference must be +1 or -1, got {preamble[row, i]!r} at iteration {i}", row=row
            )
    cap = math.inf if cfg.step_cap is None else cfg.step_cap

    # Both lines are read newest first, backwards from step i, and nothing
    # is ever shifted.  The FF line is rx[:, i], rx[:, i-1], ..., then 0.0
    # before the first sample, whose products are still formed: both loops
    # read it in the head H (n_ff - 1 zeros, then each row's first n_ff
    # samples) while it reaches before the first sample, then in `rx`.  D is
    # n_fb zeros, then decision i in column n_fb + i, so the FB line at step
    # i ends at column n_fb + i - 1.  E's first `train` columns hold the
    # references, each replaced by its error once the loop has read it.
    H = np.zeros((rows, 2 * cfg.n_ff - 1))
    H[:, cfg.n_ff - 1 :][:, :n] = rx[:, : cfg.n_ff]
    D = np.zeros((rows, cfg.n_fb + n))
    W = np.zeros((rows, cfg.n_ff))
    if cfg.center_spike:
        W[:, delay] = 1.0
    B = np.zeros((rows, cfg.n_fb))
    loop(rx, H, D, W, B, E, train, cfg.mu, cfg.algo == ALGO_ILMS, cfg.step_floor, cap)
    return D, W, B, E


def __getattr__(name):
    # KERNEL, read-only: "c" or "numpy", the name of `_kernel.load()` (chosen now if not yet).
    if name == "KERNEL":
        from . import _kernel

        return _kernel.load().name
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

