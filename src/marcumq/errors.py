"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """An iterative method exhausted its refinement budget before reaching tol."""


class CrossValidationError(RuntimeError):
    """The two independent reference methods disagree beyond the gate.

    This signals an implementation defect, never a property of the inputs.
    """


class RegimeError(ValueError):
    """A bound formula was evaluated outside the argument regime it covers."""


class SingularityError(ValueError):
    """A bound formula is singular at the requested arguments."""


class UnknownFigureError(ValueError):
    """Requested figure preset does not exist."""
