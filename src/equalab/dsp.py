"""Streaming FIR primitives shared by the channel model and the equalizer filters.

All samples are float64.  A delay line holds the most recent samples
newest-first, is zero-filled at start-up, and always has the same length as
the tap vector it feeds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, InputError

# Documented aliases: a tap vector is a fixed-length float64 coefficient
# array; a delay line is a float64 array of matching length, newest first.
TapWeights = np.ndarray
DelayLine = np.ndarray


def taps(coeffs) -> TapWeights:
    """Validate a coefficient vector: 1-D, non-empty, all finite. Returns a copy."""
    w = np.array(coeffs, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ConfigurationError("tap weights must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("tap weights must be finite")
    return w


def delay_line(capacity: int) -> DelayLine:
    """Zero-filled delay line for a filter with `capacity` taps."""
    if capacity < 0:
        raise ConfigurationError("delay line capacity must be >= 0")
    return np.zeros(capacity, dtype=np.float64)


def shift_in(line: DelayLine, sample: float) -> DelayLine:
    """Return a new line with `sample` in the newest slot; the oldest is dropped."""
    if not math.isfinite(sample):
        raise InputError(f"non-finite sample: {sample!r}")
    if line.size == 0:
        return line
    out = np.empty_like(line)
    out[0] = sample
    out[1:] = line[:-1]
    return out


def dot(weights: TapWeights, line: DelayLine) -> float:
    """Inner product of the tap vector with the delay line."""
    if weights.size != line.size:
        raise ConfigurationError(
            f"filter length {weights.size} does not match delay line length {line.size}"
        )
    return float(np.dot(weights, line))
