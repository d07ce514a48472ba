"""Exception hierarchy shared across the package."""

__all__ = ["PafmsmError", "DataError", "ParseError", "NumericalError", "ConvergenceError",
           "SeparationError", "PositivityError"]


class PafmsmError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PafmsmError):
    """Invalid or inconsistent input data."""


class ParseError(DataError):
    """Malformed input file; carries the offending row number when known."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class NumericalError(PafmsmError):
    """Estimation failed numerically (non-convergence, separation, ...)."""


class ConvergenceError(NumericalError):
    """Iterative fit did not converge; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class SeparationError(NumericalError):
    """Coefficients diverged (complete or quasi-complete separation)."""


class PositivityError(NumericalError):
    """An inverse-probability weight blew up (estimated probability 0)."""
