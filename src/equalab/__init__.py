"""Decision-feedback equalization lab.

Simulates a BPSK link over an FIR channel with additive Gaussian noise and
equalizes it with a decision-feedback equalizer adapted either by fixed-step
LMS or by a variable-step LMS whose step size is scaled by the absolute
difference of the two most recent errors.  Includes a seeded experiment
harness that emits learning-curve CSVs and machine-readable summaries.
"""

__version__ = "0.1.0"

import os
import sys

# Start numpy's OpenBLAS with one thread.  No run calls BLAS, but a second
# worker, started when numpy loads, still cost CPU on a 2-core host: a median
# 0.28 s per `equalab run --seeds 4` against 0.22 s (12 alternated runs).  A
# value the user set wins.  OpenBLAS reads it once, when numpy loads.
# Importing equalab loads no numpy: numpy first loads in `cli.entry` or when
# a module first reads its `_Numpy`, both after this line.  This has no
# effect in a process that imported numpy first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class _Numpy:
    """numpy in the module named `module`, bound there as `np = _Numpy(__name__)`
    (so defined before the submodule imports): the first attribute read imports
    numpy and rebinds that `np` to it, so later reads are plain global lookups."""

    __slots__ = ("module",)

    def __init__(self, module: str):
        self.module = module

    def __getattr__(self, name: str):
        import numpy

        sys.modules[self.module].np = numpy
        return getattr(numpy, name)


from .dfe import (
    ALGO_ILMS,
    ALGO_LMS,
    MODE_DECISION_DIRECTED,
    MODE_TRAINED,
    DfeConfig,
    equalize,
)
from .errors import ConfigurationError, InputError
from .experiment import (
    ExperimentConfig,
    RunRecord,
    SeedTable,
    emit_curves_csv,
    emit_summary,
    run_experiment,
)
from .metrics import (
    LearningCurve,
    ber,
    convergence_iteration,
    learning_curve,
    smooth,
    speedup,
    steady_state_mse,
)
from .txrx import apply_channel, gaussian, generate_bpsk, taps
