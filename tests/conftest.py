"""Fixtures shared by the test modules: the process's one kernel choice."""

import pytest

from equalab import _kernel

NO_KERNEL = (
    "no C kernel is in use here (no C compiler, no 64-bit-int ddot in numpy's BLAS, or a probe differed)"
)


@pytest.fixture
def fresh_load():
    """Let `_kernel.load` choose again on its next call, and after the test
    (which may have changed what it builds, or replaced it)."""
    load = _kernel.load
    load.cache_clear()
    yield
    load.cache_clear()


@pytest.fixture
def compiled():
    """The (lockstep, uniform) that `_kernel.load` accepted, building the
    library into its cache if need be; a skip where it accepted none."""
    kernel = _kernel.load()
    if kernel is None:
        pytest.skip(NO_KERNEL)
    return kernel


@pytest.fixture
def use_kernel(monkeypatch):
    """`use_kernel("c")` runs the compiled kernel (a skip where `_kernel.load`
    accepts none); `use_kernel("numpy")` makes `_kernel.load` return None, so
    that the numpy loop and numpy.random run."""

    def use(kernel):
        if kernel == "numpy":
            monkeypatch.setattr(_kernel, "load", lambda: None)
        elif _kernel.load() is None:
            pytest.skip(NO_KERNEL)

    return use
