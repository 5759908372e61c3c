"""First-order Marcum Q-function: reference evaluation and bound catalog.

The package provides a cross-validated oracle for Q1(a, b), eighteen
closed-form upper/lower bounds evaluated in overflow-safe scaled form,
error-table generation, and numeric certification scans for the
monotonicity and ordering facts the bounds rest on.
"""

from .bounds import (
    BoundEval,
    BoundId,
    Regime,
    compute_zeta,
    eval_all,
    evaluate,
    lb2a_literal,
    regime_of,
)
from .errors import (
    ConvergenceError,
    CrossValidationError,
    DomainError,
    RegimeError,
    SingularityError,
    UnknownFigureError,
)
from .oracle import OracleResult, QArgs, q1_quadrature, q1_reference, q1_series, q1_sweep, rice_pdf

__version__ = "0.1.0"

__all__ = [
    "BoundEval",
    "BoundId",
    "ConvergenceError",
    "CrossValidationError",
    "DomainError",
    "OracleResult",
    "QArgs",
    "Regime",
    "RegimeError",
    "SingularityError",
    "UnknownFigureError",
    "compute_zeta",
    "eval_all",
    "evaluate",
    "lb2a_literal",
    "q1_quadrature",
    "q1_reference",
    "q1_series",
    "q1_sweep",
    "regime_of",
    "rice_pdf",
    "__version__",
]
