"""Learning-curve statistics: smoothing, convergence detection, steady state, BER.

Convergence is pinned as: the smoothed MSE stays within `ratio` times its own
steady-state value for a confirmation span of `window` consecutive points.
Steady state is the mean squared error over the final `tail_fraction` of the
run.  Both parameters are echoed in every summary so results are comparable.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _Numpy
from .errors import InputError, as_integer

np = _Numpy(__name__)


class LearningCurve(NamedTuple):
    """Per-iteration squared errors plus derived statistics.

    `smoothed` has length len(sq_errors) - window + 1, which gives the
    smoothing window; `convergence_iter` indexes into it (the first iteration
    of the qualifying window) and is None when the run never settled.
    """

    sq_errors: np.ndarray
    smoothed: np.ndarray
    steady_state_mse: float
    convergence_iter: int | None


def _vector(values, name: str) -> np.ndarray:
    """`values` as a 1-D float64 array, else an InputError naming it."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {x.shape}")
    return x


def smooth(sq_errors, window: int) -> np.ndarray:
    """Forward moving average: out[i] = (0.0 + sq_errors[i] + ... + sq_errors[i+window-1]) / window."""
    x = _vector(sq_errors, "learning curve")
    window = as_integer(window, "smoothing window")
    if window < 1:
        raise InputError("smoothing window must be >= 1")
    if window > x.size:
        raise InputError(f"smoothing window {window} exceeds curve length {x.size}")
    total = np.zeros(x.size - window + 1)
    for k in range(window):  # one add of the whole curve per window point, in index order
        total += x[k : k + total.size]
    return total / window


def steady_state_mse(sq_errors, tail_fraction: float) -> float:
    """Mean of a curve's final ceil(tail_fraction * len) values; of a run's steps, its settled step."""
    x = _vector(sq_errors, "learning curve")
    if x.size == 0:
        raise InputError("empty learning curve")
    if not 0 < tail_fraction <= 1:
        raise InputError("tail fraction must be in (0, 1]")
    k = math.ceil(tail_fraction * x.size)
    return float(np.mean(x[x.size - k :]))


def convergence_iteration(smoothed, level: float, span: int) -> int | None:
    """First index whose next `span` smoothed points all sit at or below
    `level`; None if no such span exists."""
    w = as_integer(span, "confirmation span")
    if w < 1:
        raise InputError("confirmation span must be >= 1")
    below = _vector(smoothed, "smoothed curve") <= level
    # Points at or below in each window of w: differences of a running count
    # (none when the span does not fit).
    count = np.concatenate(([0], np.cumsum(below, dtype=np.int64)))
    hits = np.nonzero(count[w:] - count[:-w] == w)[0]
    return int(hits[0]) if hits.size else None


def speedup(conv_lms: int | None, conv_ilms: int | None) -> float | None:
    """Iterations-to-convergence ratio, `lms` over `ilms`.

    Defined only when both counts are present and positive; None otherwise.
    """
    if conv_lms is None or conv_ilms is None:
        return None
    if conv_lms <= 0 or conv_ilms <= 0:
        return None
    return conv_lms / conv_ilms


def ber(decisions, transmitted, delay: int, skip: int) -> float:
    """Fraction of indices n >= skip where decisions[n] != transmitted[n - delay]."""
    d = _vector(decisions, "decisions")
    t = _vector(transmitted, "transmitted sequence")
    delay, skip = as_integer(delay, "delay"), as_integer(skip, "skip")
    if delay < 0 or skip < 0:
        raise InputError("delay and skip must be >= 0")
    if skip < delay:
        raise InputError(f"skip {skip} must be >= delay {delay}")
    if skip >= d.size:
        raise InputError(f"skip {skip} leaves no symbols to compare (have {d.size})")
    if t.size < d.size - delay:
        raise InputError("transmitted sequence too short for the requested delay")
    compared = d[skip:]
    reference = t[skip - delay : skip - delay + compared.size]
    return float(np.mean(compared != reference))


def learning_curve(sq_errors, window: int, ratio: float, tail_fraction: float) -> LearningCurve:
    """Assemble a LearningCurve; convergence is the first crossing of `ratio` * steady state held for `window` points."""
    x = _vector(sq_errors, "learning curve")
    smoothed = smooth(x, window)
    steady = steady_state_mse(x, tail_fraction)
    if not ratio > 0:
        raise InputError("convergence ratio must be > 0")
    return LearningCurve(x, smoothed, steady, convergence_iteration(smoothed, ratio * steady, window))
