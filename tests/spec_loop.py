"""The executable spec over whole rows: the tests' one loop through
`dfe_step`, which owns the training-reference rule; the steps a run took,
read from its errors; and the input of a run's seeds."""

import numpy as np

from equalab import apply_channel, generate_bpsk
from equalab.dfe import ALGO_LMS, MODE_TRAINED, PAD_SYMBOL, dfe_step, initial_state
from equalab.experiment import NOISE_SEED_OFFSET


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


def effective_steps(E, cfg):
    """The step each iteration of `cfg`'s rule took, from a run's signed
    errors `E` (rows, N): mu for `lms`; for `ilms`
    mu * max(|e(n) - e(n-1)|, step_floor) with e(-1) = 0, capped at
    step_cap, as `adapt.effective_step` computes it."""
    if cfg.algo == ALGO_LMS:
        return np.full(E.shape, cfg.mu)
    steps = cfg.mu * np.maximum(np.abs(np.diff(E, axis=-1, prepend=0.0)), cfg.step_floor)
    return steps if cfg.step_cap is None else np.minimum(steps, cfg.step_cap)


def experiment_input(config, seeds):
    """(rx, tx), each (len(seeds), n_symbols): the received samples and the
    symbols of `seeds` in a run of `config`, built as `run_experiment` does."""
    tx = np.array([generate_bpsk(config.n_symbols, s) for s in seeds])
    noise = [s + NOISE_SEED_OFFSET for s in seeds]
    return np.array([apply_channel(t, config.channel, config.noise_variance, n) for t, n in zip(tx, noise)]), tx
