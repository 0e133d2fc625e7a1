"""Exception types shared across the package."""


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

    A failure inside a batched equalizer run carries the batch `row` in
    which it happened, so callers can name the run.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
