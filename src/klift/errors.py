"""Exception types shared across the package."""


class KliftError(Exception):
    """Base class for solver errors."""


class ConvergenceError(KliftError):
    """An iterative solve failed to reach its tolerance.

    Carries the last residual (and, where available, the residual history)
    so callers can log or post-mortem the failure.
    """

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = list(history) if history is not None else []


class NumericalError(KliftError):
    """A computation produced non-finite values or lost numerical rank."""
