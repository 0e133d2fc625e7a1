"""The executable spec over whole rows: the tests' one loop through
`dfe_step`, which owns the training-reference rule."""

import numpy as np

from equalab.dfe import MODE_TRAINED, PAD_SYMBOL, dfe_step, initial_state


def step_through(rx, cfg, tx=None):
    """Step the row `rx` through `dfe_step` from `initial_state(cfg)`, and
    yield each step's StepTrace and the state after it.  In trained mode,
    iteration i < training_len takes the reference tx[i - delay], or
    PAD_SYMBOL while i < delay, as `equalize` does."""
    state = initial_state(cfg)
    train = cfg.training_len if cfg.mode == MODE_TRAINED else 0
    for i, r in enumerate(rx):
        reference = None
        if i < train:
            reference = tx[i - cfg.delay] if i >= cfg.delay else PAD_SYMBOL
        trace, state = dfe_step(state, float(r), reference, cfg)
        yield trace, state


def run_spec(rx, cfg, tx=None):
    """All the steps of `step_through`: ({StepTrace field: (N,) array}, the
    state after the last step)."""
    steps = list(step_through(rx, cfg, tx))
    fields = ("combiner_out", "decision", "error", "effective_step")
    return {f: np.array([getattr(t, f) for t, _ in steps]) for f in fields}, steps[-1][1]

