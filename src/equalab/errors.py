"""Exception types shared across the package, and the integer checks of a config
field and of a function argument."""

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


def require_integer(value, field: str) -> None:
    """Raise ConfigurationError naming `field` unless `value` is an integer
    (any integer type): a float count would otherwise fail deep in numpy."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigurationError(f"must be an integer, got {value!r}", field=field) from None


def as_integer(value, name: str) -> int:
    """`value` as a Python int (any integer type), else an InputError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
