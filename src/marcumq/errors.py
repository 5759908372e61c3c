"""Exception types shared across the package, and how their messages quote a value."""

_REPR_MAX = 40  # characters of a rejected value's repr that an error message quotes


def _brief(v: object) -> str:
    """repr(v) for an error message, cut to _REPR_MAX characters.

    An int past the double range is given by its size: its repr can run
    to thousands of digits, and past 4300 Python refuses to print it.
    """
    if isinstance(v, int) and v.bit_length() > 1024:
        return f"an int of {v.bit_length()} bits"
    r = repr(v)
    return r if len(r) <= _REPR_MAX else f"{r[:_REPR_MAX]}... ({len(r)} characters)"


def _exact(x: float) -> str:
    """x in ``:g`` form where that text reads back as x, else as ``_brief`` quotes it.

    ``:g`` keeps six significant digits, so 1000003.0 would read 1e+06.
    """
    g = f"{x:g}"
    return g if float(g) == x else _brief(x)


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
