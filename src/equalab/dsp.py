"""The FIR primitives of the equalizer's executable specification, `dfe.dfe_step`,
and nothing else: a run calls neither.  All samples are float64.  A delay line
holds the most recent samples newest-first, zeros at start-up, and always has
the length of the tap vector it feeds.
"""

from __future__ import annotations

import math

from . import _Numpy
from .errors import ConfigurationError, InputError

np = _Numpy(__name__)


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
