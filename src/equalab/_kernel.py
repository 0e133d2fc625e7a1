"""The hot operations of a run, each compiled (_kernel.c) and as its numpy
twin with the same bytes, and the one choice of the process between them.

- `lockstep`, the loop of `dfe.equalize` over the buffers of
  `dfe._lockstep`, which lays out the FF line for both, summing as `dsp.dot`
  does: C walks each row to its end; twin `_numpy_loop` steps all at once.
- `uniform(seed, n)`, numpy's `Generator(PCG64(seed)).random(n)`: C
  expands the seed's 32-bit words as SeedSequence does and steps PCG64;
  twin `_numpy_uniform`, whose numpy.random loads OpenSSL (`secrets`,
  `hashlib`) and ~6 MB.
- `rows`, curves.csv's rows with the bytes of format(x, ".17g"): C converts
  a normal |x| in [2^-129, 1e17) with exact integers and any other value
  with snprintf; twin `_text_rows`.

`load` builds the library with the system C compiler once, caches it in
__pycache__/ under a zlib checksum (not hashlib: no OpenSSL) of the source,
machine and flags, and removes older ones.  It keeps the library only if
each operation passes its probe against its twin; else all three fall back
to `numpy()` together.  `dfe`, `txrx` and `experiment` read `load()` and
nothing else of this module.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import platform
import tempfile
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dfe

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = Path(__file__).with_name("__pycache__")
CC = "cc"
# -ffp-contract=off: no fused multiply-add (GCC fuses by default on aarch64),
# so every product is rounded before it is added, as in the twin and dsp.dot.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_F64 = ctypes.c_double
_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
# Most bytes of one row besides its name: a 20-digit index, two 24-byte
# values ("-2.2250738585072014e-308"), three commas and the newline.
_ROW_BYTES = 72


class Kernel(NamedTuple):
    """The operations of a process, called as their twins are: `name` is "c" or "numpy"."""

    name: str
    lockstep: Callable
    uniform: Callable
    rows: Callable


@functools.cache
def load() -> Kernel:
    """The compiled kernel if it builds, links and passes its three probes
    here, else `numpy()`.  Cached: `load.cache_clear()` after changing CC,
    CACHE, FLAGS or SOURCE."""
    try:
        lib = ctypes.CDLL(str(_build()))
        kernel, draw, write = lib.equalab_lockstep, lib.equalab_uniform, lib.equalab_rows
    except (ImportError, AttributeError, OSError):
        return numpy()
    kernel.argtypes = [_I64, _I64, _I64, _I64, *[_PTR] * 7, _I64, _F64, ctypes.c_int, _F64, _F64]
    kernel.restype = None

    def lockstep(rx, H, D, W, B, E, refs, mu, ilms, floor, cap):
        if any(a.dtype != np.float64 or not a.flags.c_contiguous for a in (rx, H, D, W, B, E, refs)):
            raise ValueError("the compiled loop needs C-contiguous float64 buffers")
        rows, n = E.shape
        kernel(
            rows, n, W.shape[1], B.shape[1],
            rx.ctypes.data, H.ctypes.data, D.ctypes.data, W.ctypes.data, B.ctypes.data, E.ctypes.data,
            refs.ctypes.data, len(refs), mu, ilms, floor, cap,
        )

    draw.argtypes = [_PTR, _I64, _I64, _PTR]
    draw.restype = None

    def uniform(seed, n):
        size = max(1, (seed.bit_length() + 31) // 32)  # SeedSequence's words: 0 is one
        words = np.frombuffer(seed.to_bytes(4 * size, "little"), "<u4").astype(np.uint32)
        out = np.empty(n)
        draw(words.ctypes.data, size, n, out.ctypes.data)
        return out

    write.argtypes = [ctypes.c_char_p, _I64, _PTR, _I64, _PTR, _I64, _PTR]
    write.restype = _I64

    def rows(name, sq, smoothed):
        if any(a.dtype != np.float64 or a.ndim != 1 or not a.flags.c_contiguous for a in (sq, smoothed)):
            raise ValueError("the compiled writer needs one-dimensional C-contiguous float64 arrays")
        if smoothed.size > sq.size:
            raise ValueError("more smoothed values than squared errors")
        key = name.encode()
        # + 1 for the NUL that snprintf ends with.  np.empty, not bytearray:
        # the pages the rows do not reach are never touched.
        out = np.empty(sq.size * (_ROW_BYTES + len(key)) + 1, np.uint8)
        size = write(key, len(key), sq.ctypes.data, sq.size, smoothed.ctypes.data, smoothed.size, out.ctypes.data)
        return memoryview(out)[:size]

    if _probe_loop(lockstep) and _probe_draws(uniform) and _probe_rows(rows):
        return Kernel("c", lockstep, uniform, rows)
    return numpy()


def numpy() -> Kernel:
    """The numpy twins of the three compiled operations."""
    return Kernel("numpy", _numpy_loop, _numpy_uniform, _text_rows)


# The numpy twins.


def _numpy_loop(rx, H, D, W, B, E, refs, mu, ilms, floor, cap) -> None:
    """Step every row of the buffers of `dfe._lockstep` through all N
    iterations, one iteration of all rows at a time.  `refs` is (train, S);
    `cap` is inf when the step has no cap."""
    n, n_ff = rx.shape[1], W.shape[1]
    # Per step i: the newest-first FF line, the n_ff samples up to sample i
    # reversed (a window of H for the first n_ff - 1 steps, then of rx), the
    # FB line D[:, n-i : n-i+n_fb], the decision column and the error column.
    # Iterating these views beats slicing.
    steps = zip(
        itertools.chain(
            sliding_window_view(H, n_ff, axis=1)[:, : n_ff - 1, ::-1].swapaxes(0, 1),
            sliding_window_view(rx, n_ff, axis=1)[:, :, ::-1].swapaxes(0, 1) if n >= n_ff else (),
        ),
        sliding_window_view(D, B.shape[1], axis=1)[:, n:0:-1].swapaxes(0, 1),
        D.T[n - 1 :: -1],
        E.T,
    )
    refs = iter(refs)
    # Each filter's products after a zero column: a row's running sum ends in 0.0 + w[0]*x[0] + ...
    ff, fb = np.zeros((len(W), W.shape[1] + 1)), np.zeros((len(B), B.shape[1] + 1))
    e_prev = np.zeros(len(E))
    mu, floor, cap = (np.full(len(E), v) for v in (mu, floor, cap))  # converted once, not every step
    # A diverging row turns to inf/nan and stays so; `run_experiment` reports it.
    with np.errstate(all="ignore"):
        for x, f, d_out, e_out in steps:
            np.multiply(W, x, out=ff[:, 1:])
            np.multiply(B, f, out=fb[:, 1:])
            y = np.add.accumulate(ff, axis=1)[:, -1] - np.add.accumulate(fb, axis=1)[:, -1]
            # quantize(): +1 for y >= 0.  Adding +0.0 turns -0.0 into +0.0.
            d = np.copysign(1.0, y + 0.0, out=d_out)
            e = np.subtract(next(refs, d), y, out=e_out)  # the preamble, then decisions
            if ilms:
                step = np.minimum(mu * np.maximum(np.abs(e - e_prev), floor), cap)
                e_prev = e
            else:
                step = mu
            g = (step * e)[:, None]
            W += g * x
            B -= g * f  # fb + g * (-f): y subtracts the FB output


def _numpy_uniform(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).random(n)


def _text_rows(name: str, sq: np.ndarray, smoothed: np.ndarray) -> bytes:
    """One rule's rows, `i,name,sq[i],smoothed[i]` and a blank smoothed field
    past its end, formatted in Python: each run of rows is one %-format
    call, whose `%.17g` gives the bytes of format(x, ".17g")."""
    sq, sm = sq.tolist(), smoothed.tolist()
    m, n = len(sm), len(sq)
    name = name.replace("%", "%%")
    full = itertools.chain.from_iterable(zip(range(m), sq, sm))
    tail = itertools.chain.from_iterable(zip(range(m, n), sq[m:]))
    text = (f"%d,{name},%.17g,%.17g\n" * m) % tuple(full) + (f"%d,{name},%.17g,\n" * (n - m)) % tuple(tail)
    return text.encode()


# The probes: small, as every process that loads the kernel runs them once.

# The loop's configs: both rules, trained and decision-directed, floor and
# cap active, and a 37-tap FF filter, where a sum in another order would show.
_PROBE_CONFIGS = (
    dfe.DfeConfig(n_ff=37, n_fb=5, mu=0.01, center_spike=True),
    dfe.DfeConfig(
        n_ff=37, n_fb=5, mu=0.05, algo=dfe.ALGO_ILMS, mode=dfe.MODE_TRAINED, training_len=20,
        step_floor=0.01, step_cap=0.03,
    ),
)

# Draws recorded from numpy.random: Generator(PCG64(seed)).random(3) as
# float.hex, for a seed of one, three and seven 32-bit words: the last runs
# the expansion's loop over the words beyond the pool of four.
RECORDED = {
    0: ("0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"),
    2**64 + 3: ("0x1.72e3130a8e59ep-1", "0x1.a43614024d64ep-2", "0x1.035a1d03efee3p-1"),
    2**200 + 7: ("0x1.c29c317a2d499p-1", "0x1.685935c8e4b0ep-2", "0x1.132947d08103cp-1"),
}


def _probe_loop(lockstep) -> bool:
    """Whether the compiled `lockstep` leaves the buffers of `_numpy_loop`,
    byte for byte, on the probe configs, which never diverge: where weights
    turn infinite, W can hold NaNs of opposite signs (D, B and E match)."""
    k = np.arange(2 * 64.0).reshape(2, 64)
    tx = np.where(np.sin(0.37 * k * k) > 0.0, 1.0, -1.0)
    rx = 0.8 * tx + 0.3 * np.cos(1.7 * k)
    return all(
        [a.tobytes() for a in dfe._lockstep(lockstep, rx, cfg, tx)]
        == [b.tobytes() for b in dfe._lockstep(_numpy_loop, rx, cfg, tx)]
        for cfg in _PROBE_CONFIGS
    )


def _probe_draws(uniform) -> bool:
    """Whether the compiled `uniform` reproduces the recorded draws bit for bit."""
    draws = ((uniform(seed, len(want)).tolist(), want) for seed, want in RECORDED.items())
    return all(tuple(x.hex() for x in got) == want for got, want in draws)


def _probe_rows(rows) -> bool:
    """Whether the compiled writer `rows` writes the bytes of `_text_rows`
    on values at the edges of both its paths: the powers of ten where it
    changes path or notation (1e-39, 1e-38, 1e-5, 1e-4, 1e16, 1e17) and
    their neighbours, ties of the 17th digit that round down and up, the
    ends of the exact range, subnormals, ±0, ±inf and ±nan."""
    edges = [
        0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
        math.inf, math.nan, 2.0**-129, math.nextafter(2.0**-129, 0.0),
        32001 / 2**18, 32003 / 2**18, 2.0**50 + 0.25, 2.0**50 + 0.75,
    ]
    smoothed = np.array([*edges, *(-x for x in edges)])
    powers = []
    for x in (1e-39, 1e-38, 1e-5, 1e-4, 1e16, 1e17):
        powers += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    sq = np.array([*smoothed[::-1].tolist(), *powers])
    return bytes(rows("probe", sq, smoothed)) == _text_rows("probe", sq, smoothed)


def _library() -> Path:
    """Where the library of this source, machine and set of flags is cached."""
    data = SOURCE.read_bytes() + " ".join((platform.machine(), *FLAGS)).encode()
    return CACHE / f"_kernel-{zlib.crc32(data):08x}{zlib.adler32(data):08x}.so"


def _build() -> Path:
    """Path of the shared library, compiled first if it is not cached yet."""
    lib = _library()
    if not lib.exists():
        import subprocess  # only a build needs it: a run on a cached library never loads it

        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".tmp", dir=CACHE)
        os.close(fd)
        try:
            subprocess.run([CC, *FLAGS, "-o", tmp, str(SOURCE)], check=True, capture_output=True, timeout=120)
            # Atomic: a process building at the same time finds no file or a whole one.
            os.replace(tmp, lib)
            for old in CACHE.glob("_kernel-*.so"):  # older sources or flags; a build's .tmp stays
                if old != lib:
                    old.unlink(missing_ok=True)
        except subprocess.SubprocessError as exc:  # the compiler failed or hung
            raise OSError(f"cannot build {SOURCE.name}: {exc}") from exc
        finally:
            Path(tmp).unlink(missing_ok=True)
    return lib
