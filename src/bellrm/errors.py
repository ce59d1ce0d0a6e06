"""Exception hierarchy shared by the whole package.

Three families matter for the CLI exit codes: ConfigError (bad
parameters, exit 2), DataError (bad or missing input data, exit 3) and
WorkerError (a worker process died, exit 4).
:func:`require_finite` is the shared check for a number a config supplies.
"""

import math
import numbers


class BellrmError(Exception):
    pass


class ConfigError(BellrmError):
    """Invalid configuration value or combination."""


class UnsupportedModelError(ConfigError):
    """Operation called with a model kind it does not apply to."""


class DataError(BellrmError):
    """Input data is missing, malformed or inconsistent."""


class WorkerError(BellrmError):
    """A worker process ended without sending its reply."""


class StreamOrderError(DataError):
    """Event stream is not time-ordered."""


class IntegrityError(DataError):
    """A binary file failed validation; carries the failing byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class InsufficientLengthError(DataError):
    """Sequence too short (or parameters too large) for a statistical test."""


class UndefinedStatisticError(DataError):
    """Estimator called on an empty selection (no records, no sequences)."""


class IncompleteSettingsError(DataError):
    """CHSH estimate requested but a settings pair has no records."""


def require_finite(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
