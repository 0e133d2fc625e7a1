"""Build and load the compiled lockstep loop of `dfe.equalize` (_kernel.c).

The shared library is built with the system C compiler the first time it is
needed and cached in this package's __pycache__/, named by a hash of the
source and the build flags.  Its dot products call the BLAS `ddot` that
numpy's own dot calls, looked up at run time through numpy's extension
module, so that both loops sum alike.  `load` returns None when any step
fails, and the caller keeps the numpy loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import tempfile
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


def load():
    """The compiled loop, called as dfe._numpy_loop is, or None if it cannot
    be built or linked here (a missing compiler raises FileNotFoundError)."""
    try:
        ddot = _ddot()
        kernel = ctypes.CDLL(str(_build())).equalab_lockstep
    except (ImportError, AttributeError, OSError, subprocess.SubprocessError):
        return None
    kernel.argtypes = [_PTR, _I64, _I64, _I64, _I64, *[_PTR] * 6, _I64, _F64, ctypes.c_int, _F64, _F64]
    kernel.restype = None

    def lockstep(R, D, W, B, E, refs, mu, ilms, floor, cap):
        arrays = (R, D, W, B, E) if refs is None else (R, D, W, B, E, refs)
        if any(a.dtype != np.float64 or not a.flags.c_contiguous for a in arrays):
            raise ValueError("the compiled loop needs C-contiguous float64 buffers")
        rows, n = E.shape
        kernel(
            ddot, rows, n, W.shape[1], B.shape[1],
            R.ctypes.data, D.ctypes.data, W.ctypes.data, B.ctypes.data, E.ctypes.data,
            None if refs is None else refs.ctypes.data, 0 if refs is None else len(refs),
            mu, ilms, floor, math.inf if cap is None else cap,
        )

    return lockstep


def _ddot() -> int:
    """Address of the ddot that numpy's dot calls."""
    from numpy._core import _multiarray_umath

    # dlsym on the extension's handle also searches the BLAS library it links.
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in DDOT_SYMBOLS:
        if hasattr(lib, name):
            return ctypes.cast(getattr(lib, name), _PTR).value
    raise AttributeError(f"numpy's BLAS exports none of {', '.join(DDOT_SYMBOLS)}")


def _build() -> Path:
    """Path of the shared library, compiled first if it is not cached yet."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join((platform.machine(), *FLAGS)).encode()).hexdigest()[:16]
    lib = CACHE / f"_kernel-{key}.so"
    if not lib.exists():
        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".tmp", dir=CACHE)
        os.close(fd)
        try:
            subprocess.run([CC, *FLAGS, "-o", tmp, str(SOURCE)], check=True, capture_output=True, timeout=120)
            # Atomic: a process building at the same time finds no file or a whole one.
            os.replace(tmp, lib)
        finally:
            Path(tmp).unlink(missing_ok=True)
    return lib
