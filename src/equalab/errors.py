"""Exception types shared across the package, the integer and real checks of a
config field, and the integer check of a function argument."""

import numbers
import operator


class ConfigurationError(ValueError):
    """Invalid static configuration: parameter ranges, filter lengths, config keys.

    Carries the offending field name when one is known so callers (and the
    CLI) can report exactly which setting is wrong.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class InputError(ValueError):
    """Invalid runtime input: non-finite samples, empty sequences, bad indices.

    A bad sample or training reference of a batched equalizer run carries
    the batch `row` in which it is, so callers can name the run.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def require_integer(value, field: str) -> int:
    """`value` as a Python int (any integer type), else a ConfigurationError
    naming `field`: a float count would fail deep in numpy, and a numpy count
    would wrap or overflow there."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"must be an integer, got {value!r}", field=field) from None


def require_real(value, field: str) -> float:
    """`value` as a Python float (any real type), else a ConfigurationError
    naming `field`: a float32 setting would run other numbers than it echoes."""
    if not isinstance(value, numbers.Real):
        raise ConfigurationError(f"must be a real number, got {value!r}", field=field)
    try:
        return float(value)
    except OverflowError:  # an int such as 10**400
        raise ConfigurationError("must be within the float range", field=field) from None


def as_integer(value, name: str) -> int:
    """`value` as a Python int (any integer type), else an InputError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
