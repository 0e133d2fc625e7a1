"""Build and load the compiled kernels (_kernel.c): the lockstep loop of
`dfe.equalize` and the PCG64 uniform draws of `_pcg64`.

The shared library is built with the system C compiler the first time it is
needed and cached in this package's __pycache__/, named by a CRC-32 and an
Adler-32 of the source, the machine and the build flags (zlib, so that no
run loads OpenSSL through hashlib).  Its dot products call the BLAS `ddot`
that numpy's own dot calls, looked up at run time through numpy's extension
module, so that both loops sum alike.  `load` returns None when any step
fails, and the callers keep the numpy loop and numpy.random.
"""

from __future__ import annotations

import ctypes
import os
import platform
import tempfile
import zlib
from pathlib import Path

import numpy as np

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


def load():
    """(lockstep, uniform) from one build, or None if the library cannot be
    built or linked here (a missing compiler raises FileNotFoundError, a
    failing one OSError).  `lockstep` is called as dfe._numpy_loop is;
    `uniform(state, seq, n)` returns n PCG64 doubles from the two 128-bit
    seed halves that _pcg64 derives."""
    try:
        ddot = _ddot()
        lib = ctypes.CDLL(str(_build()))
        kernel, draw = lib.equalab_lockstep, lib.equalab_uniform
    except (ImportError, AttributeError, OSError):
        return None
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

    def uniform(state, seq, n):
        out = np.empty(n)
        draw(state >> 64, state & _M64, seq >> 64, seq & _M64, n, out.ctypes.data)
        return out

    return lockstep, uniform


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
