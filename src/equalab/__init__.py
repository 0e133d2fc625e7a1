"""Decision-feedback equalization lab.

Simulates a BPSK link over an FIR channel with additive Gaussian noise and
equalizes it with a decision-feedback equalizer adapted either by fixed-step
LMS or by a variable-step LMS whose step size is scaled by the absolute
difference of the two most recent errors.  Includes a seeded experiment
harness that emits learning-curve CSVs and machine-readable summaries.
"""

__version__ = "0.1.0"

from .adapt import AdaptParams, effective_step, ilms_step, lms_step, lms_update
from .dfe import (
    ALGO_ILMS,
    ALGO_LMS,
    MODE_DECISION_DIRECTED,
    MODE_TRAINED,
    DfeConfig,
    DfeState,
    StepTrace,
    combiner,
    dfe_step,
    equalize,
    form_error,
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
from .txrx import ChannelModel, apply_channel, gaussian, generate_bpsk
