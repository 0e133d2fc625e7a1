"""Weight-adaptation rules for the equalizer filters.

Two rules share the canonical stochastic-gradient update w[k] += step*e*x[k]
(`lms_update`) and differ only in the step: `lms` uses a fixed step `mu`,
`ilms` rescales it every iteration by |e(n) - e(n-1)| (`effective_step`), so
the step is large while the error is still changing fast and shrinks as the
error settles.  `dfe.dfe_step` applies the update to both equalizer filters.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _Numpy
from .errors import ConfigurationError

np = _Numpy(__name__)


class AdaptParams(NamedTuple):
    """The step settings of `effective_step`, unchecked (`DfeConfig` checks
    them): `step_floor` floors the |e(n) - e(n-1)| scale and `step_cap` caps the
    step.  Both are off by default: consecutive equal errors then stall the rule."""

    mu: float
    step_floor: float = 0.0
    step_cap: float | None = None


def lms_update(weights: np.ndarray, regressor: np.ndarray, e: float, step: float) -> np.ndarray:
    """One gradient update: new weights w[k] + step * e * x[k]; inputs untouched."""
    if weights.size != regressor.size:
        raise ConfigurationError(
            f"weight length {weights.size} does not match regressor length {regressor.size}"
        )
    return weights + (step * e) * regressor


def effective_step(params, e_curr: float, e_prev: float) -> float:
    """Variable step size mu * |e_curr - e_prev|, floored and capped; reads only mu, step_floor, step_cap."""
    s = params.mu * max(abs(e_curr - e_prev), params.step_floor)
    if params.step_cap is not None and s > params.step_cap:
        s = params.step_cap
    return s
