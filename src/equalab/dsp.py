"""FIR primitives: `taps` checks the channel's coefficients, and the others
run the filters of the equalizer's executable specification, `dfe.dfe_step`.

All samples are float64.  A delay line holds the most recent samples
newest-first, is zero-filled at start-up, and always has the same length as
the tap vector it feeds.
"""

from __future__ import annotations

import math

from . import _Numpy
from .errors import ConfigurationError, InputError

np = _Numpy(__name__)


def taps(coeffs) -> np.ndarray:
    """Validate a coefficient vector: 1-D, non-empty, real numbers, all finite.
    Returns a float64 copy."""
    try:
        w = np.array(coeffs)
    except ValueError:  # a ragged nesting
        w = np.array(None)
    if w.dtype.kind not in "biuf":  # else numpy parses "0.5" and refuses 1j with a bare TypeError
        raise ConfigurationError(f"tap weights must be real numbers, got {coeffs!r}")
    w = w.astype(np.float64, copy=False)
    if w.ndim != 1 or w.size < 1:
        raise ConfigurationError("tap weights must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("tap weights must be finite")
    return w


def delay_line(capacity: int) -> np.ndarray:
    """Zero-filled delay line for a filter with `capacity` taps."""
    if capacity < 0:
        raise ConfigurationError("delay line capacity must be >= 0")
    return np.zeros(capacity, dtype=np.float64)


def shift_in(line: np.ndarray, sample: float) -> np.ndarray:
    """Return a new line with `sample` in the newest slot; the oldest is dropped."""
    if not math.isfinite(sample):
        raise InputError(f"non-finite sample: {sample!r}")
    if line.size == 0:
        return line
    out = np.empty_like(line)
    out[0] = sample
    out[1:] = line[:-1]
    return out


def dot(weights: np.ndarray, line: np.ndarray) -> float:
    """Inner product of the tap vector with the delay line: 0.0, then each product in tap order."""
    if weights.size != line.size:
        raise ConfigurationError(
            f"filter length {weights.size} does not match delay line length {line.size}"
        )
    s = 0.0
    for w, x in zip(weights.tolist(), line.tolist()):
        s = s + w * x
    return s
