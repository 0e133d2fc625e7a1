"""Decision-feedback equalization lab.

Simulates a BPSK link over an FIR channel with additive Gaussian noise and
equalizes it with a decision-feedback equalizer adapted either by fixed-step
LMS or by a variable-step LMS whose step size is scaled by the absolute
difference of the two most recent errors.  Includes a seeded experiment
harness that emits learning-curve CSVs and machine-readable summaries.
"""

__version__ = "0.1.0"

import os

# Start numpy's OpenBLAS with one thread.  Its dot products here span 5-37
# taps, which OpenBLAS never splits across threads, yet on a 2-core host the
# second worker it starts spun about 0.15 s of CPU per `equalab run` (0.49 s
# against 0.33 s).  A value the user set wins; OpenBLAS reads it once, when
# numpy loads, so this must come before the first submodule imports numpy and
# has no effect in a process that imported numpy first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .adapt import AdaptParams, effective_step, lms_update
from .dfe import (
    ALGO_ILMS,
    ALGO_LMS,
    MODE_DECISION_DIRECTED,
    MODE_TRAINED,
    DfeConfig,
    DfeState,
    StepTrace,
    dfe_step,
    equalize,
    initial_state,
    quantize,
)
from .dsp import delay_line, dot, shift_in, taps
from .errors import ConfigurationError, InputError
from .experiment import (
    ExperimentConfig,
    RunRecord,
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
from .txrx import apply_channel, gaussian, generate_bpsk
