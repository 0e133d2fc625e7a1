"""Weight-adaptation rules for the equalizer filters.

Two rules share the canonical stochastic-gradient update w[k] += step*e*x[k]:
`lms` uses a fixed step `mu`, `ilms` rescales it every iteration by
|e(n) - e(n-1)|, so the step is large while the error is still changing fast
and shrinks as the error settles.

The combiner subtracts the feedback filter output, so both filters descend
the same squared-error surface only if the feedback gradient regressor is
the negated decision history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dsp import DelayLine, TapWeights
from .errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class AdaptParams:
    """Step-size parameters.

    `step_floor` bounds the |e(n) - e(n-1)| scale from below and `step_cap`
    bounds the effective step from above.  Both default to off, which leaves
    the variable-step rule exact: consecutive equal errors genuinely stall it.
    """

    mu: float
    step_floor: float = 0.0
    step_cap: float | None = None

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ConfigurationError("must be finite and > 0", field="mu")
        if not 0 <= self.step_floor < math.inf:
            raise ConfigurationError("must be finite and >= 0", field="step_floor")
        if self.step_cap is not None and (
            not 0 < self.step_cap < math.inf or self.step_cap < self.mu * self.step_floor
        ):
            raise ConfigurationError("must be finite, > 0 and >= mu * step_floor", field="step_cap")


def lms_update(weights: TapWeights, regressor: DelayLine, e: float, step: float) -> TapWeights:
    """One gradient update: new weights w[k] + step * e * x[k]; inputs untouched."""
    if weights.size != regressor.size:
        raise ConfigurationError(
            f"weight length {weights.size} does not match regressor length {regressor.size}"
        )
    return weights + (step * e) * regressor


def effective_step(params: AdaptParams, e_curr: float, e_prev: float) -> float:
    """Variable step size: mu * |e_curr - e_prev|, with optional floor and cap."""
    s = params.mu * max(abs(e_curr - e_prev), params.step_floor)
    if params.step_cap is not None and s > params.step_cap:
        s = params.step_cap
    return s


def lms_step(
    params: AdaptParams,
    ff_weights: TapWeights,
    ff_regressor: DelayLine,
    fb_weights: TapWeights,
    fb_regressor: DelayLine,
    e: float,
) -> tuple[TapWeights, TapWeights, float]:
    """`lms` on both filters; returns (ff', fb', step applied)."""
    step = params.mu
    ff = lms_update(ff_weights, ff_regressor, e, step)
    return ff, lms_update(fb_weights, -fb_regressor, e, step), step


def ilms_step(
    params: AdaptParams,
    ff_weights: TapWeights,
    ff_regressor: DelayLine,
    fb_weights: TapWeights,
    fb_regressor: DelayLine,
    e: float,
    e_prev: float,
) -> tuple[TapWeights, TapWeights, float]:
    """`ilms` on both filters; e_prev is 0 on the first iteration."""
    step = effective_step(params, e, e_prev)
    ff = lms_update(ff_weights, ff_regressor, e, step)
    return ff, lms_update(fb_weights, -fb_regressor, e, step), step
