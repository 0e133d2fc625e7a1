"""Fixtures shared by the test modules: the process's one kernel choice, and
the environment of a child process."""

import os

import pytest

from equalab import _kernel

NO_KERNEL = "no C kernel is in use here (no C compiler, the build or load failed, or a probe differed)"


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
    """The compiled `Kernel` that `_kernel.load` accepted: the loop, the
    draws and the CSV writer, building the library into its cache if need
    be; a skip where it fell back to numpy."""
    kernel = _kernel.load()
    if kernel.name != "c":
        pytest.skip(NO_KERNEL)
    return kernel


@pytest.fixture
def use_kernel(monkeypatch):
    """`use_kernel("c")` runs the compiled kernel (a skip where `_kernel.load`
    falls back to numpy); `use_kernel("numpy")` makes `_kernel.load` return
    `_kernel.numpy()`, so that the numpy loop, numpy.random and the Python
    CSV writer run."""

    def use(kernel):
        if kernel == "numpy":
            monkeypatch.setattr(_kernel, "load", _kernel.numpy)
        elif _kernel.load().name != "c":
            pytest.skip(NO_KERNEL)

    return use


@pytest.fixture
def child_env() -> dict:
    """This environment, with the equalab under test first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(_kernel.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
