"""Weight-adaptation rules for the equalizer filters.

Two rules share the canonical stochastic-gradient update w[k] += step*e*x[k]
(`lms_update`) and differ only in the step: `lms` uses a fixed step `mu`,
`ilms` rescales it every iteration by |e(n) - e(n-1)| (`effective_step`), so
the step is large while the error is still changing fast and shrinks as the
error settles.  `dfe.dfe_step` applies the update to both equalizer filters.
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
