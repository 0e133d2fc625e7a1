"""Build and load the compiled kernels (_kernel.c): the lockstep loop of
`dfe.equalize`, the PCG64 uniform draws of `txrx` (seeded as `_pcg64`
expands the seed) and the rows that `experiment.emit_curves_csv` writes.

The shared library is built with the system C compiler the first time it is
needed and cached in this package's __pycache__/, named by a CRC-32 and an
Adler-32 of the source, the machine and the build flags (zlib, so that no
run loads OpenSSL through hashlib).  Its dot products call the BLAS `ddot`
that numpy's own dot calls, looked up at run time through numpy's extension
module, so that both loops sum alike.  When any step fails or any of the
three probes differs, `load` returns `numpy()`: the process then runs the
numpy loop, draws through numpy.random and formats curves.csv in Python.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import tempfile
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _pcg64, dfe, experiment

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = Path(__file__).with_name("__pycache__")
CC = "cc"
# -ffp-contract=off: no fused multiply-add, so every product is rounded
# before it is added, as numpy rounds it.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# The CBLAS ddot with 64-bit integers that numpy's bundled OpenBLAS exports.
DDOT_SYMBOLS = ("scipy_cblas_ddot64_", "cblas_ddot64_")

_F64 = ctypes.c_double
_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_M64 = 2**64 - 1
# Most bytes of one row besides its name: a 20-digit index, two 24-byte
# values ("-2.2250738585072014e-308"), three commas and the newline.
_ROW_BYTES = 72


class Kernel(NamedTuple):
    """The loop, draws and CSV writer of a process, all "c" or all "numpy"
    (`name`): `lockstep` is called as dfe._numpy_loop is, `uniform(seed, n)`
    as txrx._uniform is, and `rows` as experiment._text_rows is."""

    name: str
    lockstep: Callable
    uniform: Callable
    rows: Callable


@functools.cache
def load() -> Kernel:
    """The one choice of the process between the compiled kernel and
    `numpy()`: the compiled kernel only if the library builds and links here
    and its loop, its draws and its CSV writer all pass their probes
    (`dfe._probe`, `_pcg64.probe`, `experiment._probe`).  Cached:
    `load.cache_clear()` after changing CC, CACHE, FLAGS, DDOT_SYMBOLS or
    SOURCE.  The compiled writer formats a normal |v| in [2^-129, 1e17)
    itself and every other value (zero, subnormal, larger, inf) through the
    C library's snprintf."""
    try:
        ddot = _ddot()
        lib = ctypes.CDLL(str(_build()))
        kernel, draw, write = lib.equalab_lockstep, lib.equalab_uniform, lib.equalab_rows
    except (ImportError, AttributeError, OSError):
        return numpy()
    kernel.argtypes = [_PTR, _I64, _I64, _I64, _I64, *[_PTR] * 6, _I64, _F64, ctypes.c_int, _F64, _F64]
    kernel.restype = None

    def lockstep(R, D, W, B, E, refs, mu, ilms, floor, cap):
        if any(a.dtype != np.float64 or not a.flags.c_contiguous for a in (R, D, W, B, E, refs)):
            raise ValueError("the compiled loop needs C-contiguous float64 buffers")
        rows, n = E.shape
        kernel(
            ddot, rows, n, W.shape[1], B.shape[1],
            R.ctypes.data, D.ctypes.data, W.ctypes.data, B.ctypes.data, E.ctypes.data,
            refs.ctypes.data, len(refs), mu, ilms, floor, cap,
        )

    draw.argtypes = [*[ctypes.c_uint64] * 4, _I64, _PTR]
    draw.restype = None

    def uniform(seed, n):
        state, seq = _pcg64.seed_state(seed)
        out = np.empty(n)
        draw(state >> 64, state & _M64, seq >> 64, seq & _M64, n, out.ctypes.data)
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

    if dfe._probe(lockstep) and _pcg64.probe(uniform) and experiment._probe(rows):
        return Kernel("c", lockstep, uniform, rows)
    return numpy()


def numpy() -> Kernel:
    """The fallback: the numpy loop, numpy.random's draws (whose import loads
    OpenSSL through `secrets` and `hashlib`) and the Python CSV writer."""
    return Kernel("numpy", dfe._numpy_loop, _numpy_uniform, experiment._text_rows)


def _numpy_uniform(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).random(n)


def _ddot() -> int:
    """Address of the ddot that numpy's dot calls."""
    from numpy._core import _multiarray_umath

    # dlsym on the extension's handle also searches the BLAS library it links.
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in DDOT_SYMBOLS:
        if hasattr(lib, name):
            return ctypes.cast(getattr(lib, name), _PTR).value
    raise AttributeError(f"numpy's BLAS exports none of {', '.join(DDOT_SYMBOLS)}")


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
        except subprocess.SubprocessError as exc:  # the compiler failed or hung
            raise OSError(f"cannot build {SOURCE.name}: {exc}") from exc
        finally:
            Path(tmp).unlink(missing_ok=True)
    return lib
