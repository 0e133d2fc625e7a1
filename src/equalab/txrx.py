"""Transmit side and channel: BPSK source, FIR distortion, additive Gaussian
noise, and `taps`, the check of the channel's coefficients.

All randomness is drawn from seeded PCG64 streams: the uniforms of numpy's
`Generator(PCG64(seed)).random(n)`, byte for byte, from the draws that
`_kernel.load` chose.  Gaussian deviates use an explicit Box-Muller
transform over the uniform stream, so the generator is a named, stable
recipe that other implementations can match statistically.
"""

from __future__ import annotations

import math

from . import _Numpy
from .errors import ConfigurationError, InputError, as_integer

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


def generate_bpsk(n: int, seed: int) -> np.ndarray:
    """n equiprobable +/-1 symbols from a PCG64 stream seeded with `seed`."""
    n = as_integer(n, "symbol count")
    if n < 1:
        raise InputError("symbol count must be >= 1")
    return np.where(_uniform(seed, n) < 0.5, 1.0, -1.0)


def gaussian(n: int, variance: float, seed: int) -> np.ndarray:
    """n zero-mean Gaussian deviates with the given variance, Box-Muller over PCG64."""
    n = as_integer(n, "sample count")
    if n < 0:
        raise InputError("sample count must be >= 0")
    if not 0 <= variance < math.inf:
        raise InputError("variance must be finite and >= 0")
    _seed(seed)  # also when no deviate is drawn
    if variance == 0:
        return np.zeros(n, dtype=np.float64)
    m = (n + 1) // 2
    u = _uniform(seed, 2 * m)
    u1 = 1.0 - u[:m]  # (0, 1], keeps log() finite
    u2 = u[m:]
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
    return np.sqrt(variance) * z


def apply_channel(tx, impulse, noise_variance: float = 0.0, noise_seed: int = 0) -> np.ndarray:
    """Convolve the transmitted symbols with the channel impulse and add noise.

    Output sample n is 0.0 + impulse[0] * tx[n] + impulse[1] * tx[n-1] + ...,
    summed in tap order (zero before the start), plus Gaussian noise of
    `noise_variance` drawn from `noise_seed` (none at variance 0); output
    length equals the input length.  `tx` must be 1-D and non-empty, and
    `impulse` non-empty and finite.  A sum that overflows gives an infinite
    sample, without a warning: `equalize` refuses it by name.
    """
    x = np.asarray(tx, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"transmitted sequence must be 1-D, got shape {x.shape}")
    if x.size == 0:
        raise InputError("transmitted sequence is empty")
    if not 0 <= noise_variance < math.inf:
        raise ConfigurationError("must be finite and >= 0", field="noise_variance")
    _seed(noise_seed)  # also when no noise is drawn
    y = np.zeros(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, hk in enumerate(taps(impulse).tolist()[: x.size]):  # one add per tap; one past the end adds nothing
            y[k:] += hk * x[: x.size - k]
        if noise_variance > 0:
            y = y + gaussian(x.size, noise_variance, noise_seed)
    return y


def _seed(seed) -> int:
    """`seed` as a Python int, else an InputError: an integer >= 0 of any type."""
    seed = as_integer(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return seed


def _uniform(seed, n: int) -> np.ndarray:
    """Generator(PCG64(seed)).random(n) for a seed >= 0 (any integer type)."""
    from . import _kernel  # here: a process that only imports equalab never loads it

    return _kernel.load().uniform(_seed(seed), n)
