"""Exception hierarchy, which the CLI maps onto exit codes, and the integer
check that every value type shares."""

import numbers


class WavelogitError(Exception):
    """Base class for all package errors."""


class DataError(WavelogitError, ValueError):
    """Invalid input data, parameters, or file contents (CLI exit code 2)."""


class ParseError(DataError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class DimensionError(DataError):
    """Shapes of interacting values do not agree."""


class ModelFileError(DataError):
    """A model file is corrupted or carries an unsupported format version."""


class NumericalError(WavelogitError, RuntimeError):
    """Numerical failure while fitting (CLI exit code 3)."""


class ConvergenceError(NumericalError):
    """Iteration cap reached before the convergence test passed.

    Carries the solver's last convergence residual so callers can see how
    far it got.
    """

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class SingularityError(NumericalError):
    """A Newton system was singular even with its fixed 1e-10 ridge."""


class SeparationError(NumericalError):
    """Classes are (quasi-)separable; an unpenalized fit diverged."""


class RankDeficiencyError(NumericalError):
    """Component extraction ran out of rank before reaching the requested count."""


class SparsityError(NumericalError):
    """Soft-thresholding annihilated an entire loading."""


class SelectionError(NumericalError):
    """Every grid point failed during model selection."""


class CriterionUndefinedError(NumericalError):
    """An information criterion is undefined for the given fit (treated as +inf)."""


def _as_int(value, name: str) -> int:
    """``value`` as an ``int``; a ``bool`` or any non-integral value raises DataError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)
