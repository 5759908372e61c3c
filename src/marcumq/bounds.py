"""Catalog of 18 closed-form upper/lower bounds on Q1(a, b).

Two argument regimes are covered.  For b >= a the integrand of Q1 is
monotone beyond b and the *1* family applies (UB1*/LB1*); for b < a the
complement 1 - Q1 is bounded instead and the *2* family applies
(UB2*/LB2*).  The JP bounds come from sandwiching I0 between
(e^x + 3)/(e^b + 3)- and sinh-ratio approximations anchored at the
integration boundary; the A/B/C/D families are the classical
alternatives they are compared against.

The catalog is one registry, ``_FORMULAS``, mapping each ``BoundId`` to a
private ``_xxx(a, b) -> float`` that returns the raw formula value.
``_evaluate_in_regime`` is its only reader: it calls the formula and
clamps the result.  ``evaluate`` checks the id's regime before it;
``eval_all`` picks the regime's family once per point and needs no
check.  A formula that is singular at its excluded points raises
``SingularityError`` itself.  The uncorrected LB2A transcription stays
outside the registry as ``lb2a_literal``.

Every formula is evaluated in overflow-safe form: each occurrence of
I0(ab) e^(-ab) is a single scaled Bessel call and the sinh prefactor
b I0(ab)/(e^ab - e^-ab) becomes b i0e(ab)/(-expm1(-2ab)), so all bounds
stay finite far past the plain e^ab overflow point (ab ~ 709).

Raw formula values may fall outside [0, 1] (some classical bounds are
unbounded in corners); ``BoundEval.clamped`` restricts them to [0, 1].
Everything here is a pure function; no caching, no shared state.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, RegimeError, SingularityError
from .oracle import QArgs
from .specfun import bessel_i0_scaled, erfc_diff, erfc_diff_centered, log_bessel_i0

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_PI_8 = math.sqrt(math.pi / 8.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# below this the sinh-ratio lower bounds switch to their analytic a->0 limit
SMALL_AB_LIMIT = 1e-8


class Regime(Enum):
    """Argument regime: ties b = a belong to BGeqA."""

    BGeqA = "b>=a"
    BLtA = "b<a"


class BoundId(str, Enum):
    UB1JP = "UB1JP"
    UB1A = "UB1A"
    UB1B = "UB1B"
    UB1C = "UB1C"
    UB1D = "UB1D"
    LB1JP = "LB1JP"
    LB1A = "LB1A"
    LB1B = "LB1B"
    LB1C = "LB1C"
    LB1D = "LB1D"
    UB2JP = "UB2JP"
    UB2A = "UB2A"
    UB2D = "UB2D"
    LB2JP = "LB2JP"
    LB2A = "LB2A"
    LB2B = "LB2B"
    LB2C = "LB2C"
    LB2D = "LB2D"

    def __init__(self, value: str) -> None:
        # read on every evaluation, so fixed once per member from its name
        self.side = "upper" if value.startswith("UB") else "lower"
        self.regime = Regime.BGeqA if value[2] == "1" else Regime.BLtA


FAMILY_B_GE_A = tuple(i for i in BoundId if i.regime is Regime.BGeqA)
FAMILY_B_LT_A = tuple(i for i in BoundId if i.regime is Regime.BLtA)


class BoundEval(NamedTuple):
    """One evaluated bound: raw formula value and its [0, 1] clamp."""

    id: BoundId
    raw: float
    clamped: float
    side: str


def regime_of(args: QArgs) -> Regime:
    return Regime.BGeqA if args.b >= args.a else Regime.BLtA


def _require_regime(bid: BoundId, args: QArgs) -> None:
    # the family boundary b = a is admitted on both sides: every formula
    # except the B pair is well defined and remains a valid bound there
    if bid.regime is Regime.BGeqA and args.b < args.a:
        raise RegimeError(f"{bid.value} requires b >= a, got (a={args.a:g}, b={args.b:g})")
    if bid.regime is Regime.BLtA and args.b > args.a:
        raise RegimeError(f"{bid.value} requires b <= a, got (a={args.a:g}, b={args.b:g})")


def _pref_exp3(ab: float) -> float:
    """I0(ab) / (e^ab + 3) in scaled form; decreasing on ab > 0."""
    return bessel_i0_scaled(ab) / (1.0 + 3.0 * math.exp(-ab))


def _pref_sinh(a: float, b: float) -> float:
    """b I0(ab) / (e^ab - e^-ab) in scaled form, stable down to ab -> 0."""
    ab = a * b
    return b * bessel_i0_scaled(ab) / (-math.expm1(-2.0 * ab))


def compute_zeta(args: QArgs) -> float:
    """Exponential rate zeta = log(I0(ab)) / b; satisfies 0 <= zeta < a.

    log I0(ab) comes from ``log_bessel_i0``, which neither cancels as
    ab -> 0 nor overflows at large ab.  Below ab = SMALL_AB_LIMIT,
    log I0(ab) = y (1 - y/4 + ...) with y = (ab)^2/4 < 2.5e-17, so
    zeta = y/b = a ab/4 to double precision; written that way it does not
    underflow where y does.  Past ab ~ 1e16, a - zeta can fall below half
    an ulp of a, and the rounded zeta is a itself.
    """
    a, b = args.a, args.b
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"zeta requires a > 0 and b > 0, got (a={a:g}, b={b:g})")
    ab = a * b
    if ab < SMALL_AB_LIMIT:
        return 0.25 * a * ab
    return log_bessel_i0(ab) / b


def _ub1jp(a: float, b: float) -> float:
    """Upper bound for b >= a from the (e^x + 3)-ratio approximation of I0."""
    brace = (
        math.exp(-0.5 * (b - a) ** 2)
        + a * _SQRT_HALF_PI * math.erfc((b - a) / _SQRT2)
        + 3.0 * math.exp(-0.5 * (a * a + b * b))
    )
    return _pref_exp3(a * b) * brace


def lb1jp_small_ab_limit(a: float, b: float) -> float:
    """Analytic ab -> 0 limit of the sinh-ratio lower bound.

    The erfc difference vanishes linearly in a against the 1/(2a)
    prefactor, leaving (e^(-(b-a)^2/2) + e^(-(b+a)^2/2)) / 2, which tends
    to the exact value e^(-b^2/2).
    """
    return 0.5 * (math.exp(-0.5 * (b - a) ** 2) + math.exp(-0.5 * (b + a) ** 2))


def _lb1jp(a: float, b: float) -> float:
    """Lower bound for b >= a from the sinh-ratio approximation of I0."""
    if a * b < SMALL_AB_LIMIT:
        return lb1jp_small_ab_limit(a, b)
    # the erfc pair is centered at b/sqrt2 with exact width a*sqrt2, which
    # keeps full relative accuracy down to the small-ab branch threshold
    return _SQRT_HALF_PI * _pref_sinh(a, b) * erfc_diff_centered(b / _SQRT2, a * _SQRT2)


def _ub2jp(a: float, b: float) -> float:
    """Upper bound for b <= a via the complement of the (e^x + 3) form."""
    brace = (
        4.0 * math.exp(-0.5 * a * a)
        - math.exp(-0.5 * (b - a) ** 2)
        - 3.0 * math.exp(-0.5 * (a * a + b * b))
        + a * _SQRT_HALF_PI * erfc_diff(-a / _SQRT2, (b - a) / _SQRT2)
    )
    return 1.0 - _pref_exp3(a * b) * brace


def _lb2jp(a: float, b: float) -> float:
    """Lower bound for b <= a via the complement of the sinh-ratio form."""
    if a * b == 0.0:
        # empty complement integral at b = 0; the product can also
        # underflow for subnormal b, where the bound is 1 to within 1e-300
        return 1.0
    bracket = (
        math.erf(a / _SQRT2)
        - 0.5 * math.erf((a - b) / _SQRT2)
        - 0.5 * math.erf((a + b) / _SQRT2)
    )
    return 1.0 - _SQRT_TWO_PI * _pref_sinh(a, b) * bracket


def _ub1a(a: float, b: float) -> float:
    return bessel_i0_scaled(a * b) * (
        math.exp(-0.5 * (b - a) ** 2) + a * _SQRT_HALF_PI * math.erfc((b - a) / _SQRT2)
    )


def _ub1b(a: float, b: float) -> float:
    if b == a:
        raise SingularityError(f"UB1B is singular at b = a = {a:g}")
    return b / (b - a) * math.exp(-0.5 * (b - a) ** 2)


def _ub1c(a: float, b: float) -> float:
    # e^(-(a^2+b^2)/2) I0(ab) == i0e(ab) e^(-(a-b)^2/2)
    return bessel_i0_scaled(a * b) * math.exp(-0.5 * (a - b) ** 2) + a * _SQRT_PI_8 * math.erfc(
        (b - a) / _SQRT2
    )


def _ub1d(a: float, b: float) -> float:
    t = math.atan2(b, a) / math.pi
    return (1.0 - t) * math.exp(-0.5 * (b - a) ** 2) + t * math.exp(-0.5 * (a * a + b * b))


def _lb1a(a: float, b: float) -> float:
    return _SQRT_HALF_PI * b * bessel_i0_scaled(a * b) * math.erfc((b - a) / _SQRT2)


def _lb1b(a: float, b: float) -> float:
    if a == 0.0 and b == 0.0:
        return 1.0  # limit of b/(b+a) e^(-(b+a)^2/2) along a = 0
    return b / (b + a) * math.exp(-0.5 * (b + a) ** 2)


def _lb1c(a: float, b: float) -> float:
    return bessel_i0_scaled(a * b) * math.exp(-0.5 * (a - b) ** 2)


def _lb1d(a: float, b: float) -> float:
    t = math.atan2(b, a) / math.pi
    return (1.0 - t) * math.exp(-0.5 * (a * a + b * b)) + t * math.exp(-0.5 * (a + b) ** 2)


def _ub2a(a: float, b: float) -> float:
    brace = (
        math.exp(-0.5 * a * a)
        - math.exp(-0.5 * (b - a) ** 2)
        + a * _SQRT_HALF_PI * erfc_diff(-a / _SQRT2, (b - a) / _SQRT2)
    )
    return 1.0 - bessel_i0_scaled(a * b) * brace


def _ub2d(a: float, b: float) -> float:
    t = math.atan2(b, a) / math.pi
    s = a * a + b * b
    if s == 0.0:
        # subnormal a, b: the exponent (a^2-b^2)^2/(2s) <= s/2 vanishes
        return 1.0
    return 1.0 - t * (math.exp(-((a * a - b * b) ** 2) / (2.0 * s)) - math.exp(-0.5 * s))


def _lb2a_terms(a: float, b: float) -> tuple[float, float, float, float]:
    """LB2A = 1 - scale (head + zeta sqrt(pi/2) tail): (scale, zeta, head, tail)."""
    if b == 0.0:
        raise SingularityError("LB2A requires b > 0 (its rate zeta is undefined at b = 0)")
    z = compute_zeta(QArgs(a, b))
    scale = math.exp(-0.5 * (a * a - z * z))
    head = math.exp(-0.5 * z * z) - math.exp(-0.5 * (b - z) ** 2)
    tail = erfc_diff(-z / _SQRT2, (b - z) / _SQRT2)
    return scale, z, head, tail


def _lb2a(a: float, b: float) -> float:
    # as printed the erfc term lacks the zeta factor the derivation
    # produces; the corrected form is the one that matches the published
    # comparison data (see the regression tests)
    scale, z, head, tail = _lb2a_terms(a, b)
    return 1.0 - scale * (head + z * _SQRT_HALF_PI * tail)


def lb2a_literal(a: float, b: float) -> float:
    """LB2A exactly as printed, without the zeta factor on its erfc term.

    Kept only for documentation: for b <= a it exceeds 1 and does not
    reproduce the published comparison values.  ``evaluate`` uses the
    corrected form.
    """
    _require_regime(BoundId.LB2A, QArgs(a, b))
    scale, _, head, tail = _lb2a_terms(a, b)
    return 1.0 - scale * (head + _SQRT_HALF_PI * tail)


def _lb2b(a: float, b: float) -> float:
    if a == b:
        raise SingularityError(f"LB2B is singular at a = b = {a:g}")
    return 1.0 - a / (a - b) * math.exp(-0.5 * (a - b) ** 2)


def _lb2c(a: float, b: float) -> float:
    return bessel_i0_scaled(a * b) * math.exp(-0.5 * (a - b) ** 2)


def _lb2d(a: float, b: float) -> float:
    s = math.asin(b / a) / math.pi
    return 1.0 - s * (math.exp(-0.5 * (b - a) ** 2) - math.exp(-0.5 * (a + b) ** 2))


_FORMULAS = {
    BoundId.UB1JP: _ub1jp,
    BoundId.UB1A: _ub1a,
    BoundId.UB1B: _ub1b,
    BoundId.UB1C: _ub1c,
    BoundId.UB1D: _ub1d,
    BoundId.LB1JP: _lb1jp,
    BoundId.LB1A: _lb1a,
    BoundId.LB1B: _lb1b,
    BoundId.LB1C: _lb1c,
    BoundId.LB1D: _lb1d,
    BoundId.UB2JP: _ub2jp,
    BoundId.UB2A: _ub2a,
    BoundId.UB2D: _ub2d,
    BoundId.LB2JP: _lb2jp,
    BoundId.LB2A: _lb2a,
    BoundId.LB2B: _lb2b,
    BoundId.LB2C: _lb2c,
    BoundId.LB2D: _lb2d,
}


def _evaluate_in_regime(bid: BoundId, a: float, b: float) -> BoundEval:
    """Formula call and clamp for an id whose regime admits (a, b)."""
    raw = _FORMULAS[bid](a, b)
    return BoundEval(bid, raw, min(1.0, max(0.0, raw)), bid.side)


def evaluate(bid: BoundId, args: QArgs) -> BoundEval:
    """Evaluate any cataloged bound by id.

    Raises RegimeError outside the id's regime (b = a belongs to both)
    and SingularityError at a formula's excluded points.
    """
    _require_regime(bid, args)
    return _evaluate_in_regime(bid, args.a, args.b)


def eval_all(args: QArgs) -> tuple[list[BoundEval], dict[BoundId, str]]:
    """Evaluate every bound applicable to the regime of ``args``.

    Returns the successful evaluations plus a map of skipped ids to the
    reason (singular formulas at their excluded points are skipped, not
    raised).
    """
    # the family is the regime's, so no id in it needs the regime check
    family = FAMILY_B_GE_A if regime_of(args) is Regime.BGeqA else FAMILY_B_LT_A
    a, b = args.a, args.b
    evals: list[BoundEval] = []
    skipped: dict[BoundId, str] = {}
    for bid in family:
        try:
            evals.append(_evaluate_in_regime(bid, a, b))
        except SingularityError as exc:
            skipped[bid] = str(exc)
    return evals, skipped
