"""Catalog of 18 closed-form upper/lower bounds on Q1(a, b).

Two argument regimes are covered.  For b >= a the integrand of Q1 is
monotone beyond b and the *1* family applies (UB1*/LB1*); for b < a the
complement 1 - Q1 is bounded instead and the *2* family applies
(UB2*/LB2*).  The JP bounds come from sandwiching I0 between
(e^x + 3)/(e^b + 3)- and sinh-ratio approximations anchored at the
integration boundary; the A/B/C/D families are the classical
alternatives they are compared against.

The catalog is one registry, ``_FORMULAS``, mapping each ``BoundId`` to a
private ``_xxx(k) -> float`` that returns the raw formula value from a
kernel record ``k`` of its family at one point.  The record holds what
two or more of the family's formulas share, computed once: ab, i0e(ab),
e^(-(b-a)^2/2) and more for b >= a (``_KernelsGe``); ab, i0e(ab),
e^(-(b-a)^2/2), e^(-a^2/2) and one erfc difference for b <= a
(``_KernelsLt``).  A kernel only one formula uses stays in it.  Every
value is bit-identical to the formula written out over (a, b): each
kernel is the same expression, and each formula keeps its association
order.  ``_evaluate_in_regime`` is the registry's only reader: it calls
the formula and clamps the result.  ``evaluate`` checks the id's regime
and builds its family's record; ``eval_ids`` builds at most one record
per regime for a list of ids; ``eval_all`` picks the regime's family
once per point and needs no check.  A formula that is singular at its
excluded points raises ``SingularityError`` itself.  The uncorrected
LB2A transcription stays outside the registry as ``lb2a_literal``.

Raw formula values may fall outside [0, 1] (some classical bounds are
unbounded in corners); ``BoundEval.clamped`` restricts them to [0, 1].
Everything here is pure: a record lives for one call, and nothing is
kept across calls.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, RegimeError, SingularityError
from .oracle import QArgs
from .specfun import bessel_i0_scaled, erfc_diff, erfc_diff_centered, log_bessel_i0

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_PI_8 = math.sqrt(math.pi / 8.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# builds a NamedTuple from its fields in order without the Python frame
# of the generated __new__, about half the cost of a record per call
_new_record = tuple.__new__

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


def _zeta(a: float, b: float) -> float:
    """``compute_zeta`` for a > 0 and b > 0."""
    ab = a * b
    if ab < SMALL_AB_LIMIT:
        return 0.25 * a * ab
    return log_bessel_i0(ab) / b


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
    return _zeta(a, b)


class _KernelsGe(NamedTuple):
    """Kernels shared by the b >= a formulas at one point."""

    a: float
    b: float
    ab: float
    i0e: float  # i0e(ab) = e^-ab I0(ab)
    g_diff: float  # e^(-(b-a)^2/2)
    g_sq: float  # e^(-(a^2+b^2)/2)
    g_sum: float  # e^(-(a+b)^2/2)
    erfc: float  # erfc((b-a)/sqrt2)
    t: float  # atan2(b, a)/pi


class _KernelsLt(NamedTuple):
    """Kernels shared by the b <= a formulas at one point."""

    a: float
    b: float
    ab: float
    i0e: float  # i0e(ab)
    g_diff: float  # e^(-(b-a)^2/2)
    g_a: float  # e^(-a^2/2)
    erfc_diff: float  # erfc(-a/sqrt2) - erfc((b-a)/sqrt2)


def _kernels_ge(a: float, b: float) -> _KernelsGe:
    # computed in the order of UB1JP, the family's first formula, so that
    # where a kernel overflows eval_all raises what the formulas raised
    # when each computed its own
    ab = a * b
    g_diff = math.exp(-0.5 * (b - a) ** 2)
    erfc = math.erfc((b - a) / _SQRT2)
    g_sq = math.exp(-0.5 * (a * a + b * b))
    i0e = bessel_i0_scaled(ab)
    g_sum = math.exp(-0.5 * (a + b) ** 2)
    return _new_record(_KernelsGe, (a, b, ab, i0e, g_diff, g_sq, g_sum, erfc, math.atan2(b, a) / math.pi))


def _kernels_lt(a: float, b: float) -> _KernelsLt:
    # in the order of UB2JP, as in _kernels_ge
    ab = a * b
    g_a = math.exp(-0.5 * a * a)
    g_diff = math.exp(-0.5 * (b - a) ** 2)
    tail = erfc_diff(-a / _SQRT2, (b - a) / _SQRT2)
    return _new_record(_KernelsLt, (a, b, ab, bessel_i0_scaled(ab), g_diff, g_a, tail))


def _kernels(regime: Regime, a: float, b: float) -> _KernelsGe | _KernelsLt:
    """The kernel record of ``regime``'s family at (a, b)."""
    return _kernels_ge(a, b) if regime is Regime.BGeqA else _kernels_lt(a, b)


# Each formula below reads one family's kernel record.  A product or
# quotient written inline keeps the association of the scaled prefactor
# it spells out: i0e/(1 + 3e^-ab) is _pref_exp3 and b i0e/(-expm1(-2ab))
# is _pref_sinh, each evaluated before the factor that follows it.


def _ub1jp(k: _KernelsGe) -> float:
    """Upper bound for b >= a from the (e^x + 3)-ratio approximation of I0."""
    brace = k.g_diff + k.a * _SQRT_HALF_PI * k.erfc + 3.0 * k.g_sq
    return k.i0e / (1.0 + 3.0 * math.exp(-k.ab)) * brace


def lb1jp_small_ab_limit(a: float, b: float) -> float:
    """Analytic ab -> 0 limit of the sinh-ratio lower bound.

    The erfc difference vanishes linearly in a against the 1/(2a)
    prefactor, leaving (e^(-(b-a)^2/2) + e^(-(b+a)^2/2)) / 2, which tends
    to the exact value e^(-b^2/2).
    """
    return 0.5 * (math.exp(-0.5 * (b - a) ** 2) + math.exp(-0.5 * (b + a) ** 2))


def _lb1jp(k: _KernelsGe) -> float:
    """Lower bound for b >= a from the sinh-ratio approximation of I0."""
    if k.ab < SMALL_AB_LIMIT:
        return lb1jp_small_ab_limit(k.a, k.b)
    # the erfc pair is centered at b/sqrt2 with exact width a*sqrt2, which
    # keeps full relative accuracy down to the small-ab branch threshold
    pref = k.b * k.i0e / (-math.expm1(-2.0 * k.ab))
    return _SQRT_HALF_PI * pref * erfc_diff_centered(k.b / _SQRT2, k.a * _SQRT2)


def _ub2jp(k: _KernelsLt) -> float:
    """Upper bound for b <= a via the complement of the (e^x + 3) form."""
    a, b = k.a, k.b
    brace = (
        4.0 * k.g_a
        - k.g_diff
        - 3.0 * math.exp(-0.5 * (a * a + b * b))
        + a * _SQRT_HALF_PI * k.erfc_diff
    )
    return 1.0 - k.i0e / (1.0 + 3.0 * math.exp(-k.ab)) * brace


def _lb2jp(k: _KernelsLt) -> float:
    """Lower bound for b <= a via the complement of the sinh-ratio form."""
    if k.ab == 0.0:
        # empty complement integral at b = 0; the product can also
        # underflow for subnormal b, where the bound is 1 to within 1e-300
        return 1.0
    a, b = k.a, k.b
    bracket = (
        math.erf(a / _SQRT2)
        - 0.5 * math.erf((a - b) / _SQRT2)
        - 0.5 * math.erf((a + b) / _SQRT2)
    )
    pref = b * k.i0e / (-math.expm1(-2.0 * k.ab))
    return 1.0 - _SQRT_TWO_PI * pref * bracket


def _ub1a(k: _KernelsGe) -> float:
    return k.i0e * (k.g_diff + k.a * _SQRT_HALF_PI * k.erfc)


def _ub1b(k: _KernelsGe) -> float:
    a, b = k.a, k.b
    if b == a:
        raise SingularityError(f"UB1B is singular at b = a = {a:g}")
    return b / (b - a) * k.g_diff


def _ub1c(k: _KernelsGe) -> float:
    # e^(-(a^2+b^2)/2) I0(ab) == i0e(ab) e^(-(a-b)^2/2)
    return k.i0e * k.g_diff + k.a * _SQRT_PI_8 * k.erfc


def _ub1d(k: _KernelsGe) -> float:
    return (1.0 - k.t) * k.g_diff + k.t * k.g_sq


def _lb1a(k: _KernelsGe) -> float:
    return _SQRT_HALF_PI * k.b * k.i0e * k.erfc


def _lb1b(k: _KernelsGe) -> float:
    a, b = k.a, k.b
    if a == 0.0 and b == 0.0:
        return 1.0  # limit of b/(b+a) e^(-(b+a)^2/2) along a = 0
    return b / (b + a) * k.g_sum


def _lbc(k: _KernelsGe | _KernelsLt) -> float:
    """LB1C and LB2C: one expression, read from either family's record."""
    return k.i0e * k.g_diff


def _lb1d(k: _KernelsGe) -> float:
    return (1.0 - k.t) * k.g_sq + k.t * k.g_sum


def _ub2a(k: _KernelsLt) -> float:
    brace = k.g_a - k.g_diff + k.a * _SQRT_HALF_PI * k.erfc_diff
    return 1.0 - k.i0e * brace


def _ub2d(k: _KernelsLt) -> float:
    a, b = k.a, k.b
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
    z = _zeta(a, b)  # a >= b > 0 in LB2A's regime
    scale = math.exp(-0.5 * (a * a - z * z))
    head = math.exp(-0.5 * z * z) - math.exp(-0.5 * (b - z) ** 2)
    tail = erfc_diff(-z / _SQRT2, (b - z) / _SQRT2)
    return scale, z, head, tail


def _lb2a(k: _KernelsLt) -> float:
    # as printed the erfc term lacks the zeta factor the derivation
    # produces; the corrected form is the one that matches the published
    # comparison data (see the regression tests)
    scale, z, head, tail = _lb2a_terms(k.a, k.b)
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


def _lb2b(k: _KernelsLt) -> float:
    a, b = k.a, k.b
    if a == b:
        raise SingularityError(f"LB2B is singular at a = b = {a:g}")
    return 1.0 - a / (a - b) * k.g_diff


def _lb2d(k: _KernelsLt) -> float:
    a, b = k.a, k.b
    if a == 0.0:
        # b <= a leaves only the tie a = b = 0, where asin(b/a) is 0/0
        raise SingularityError(f"LB2D is singular at a = b = {a:g}")
    s = math.asin(b / a) / math.pi
    return 1.0 - s * (k.g_diff - math.exp(-0.5 * (a + b) ** 2))


_FORMULAS = {
    BoundId.UB1JP: _ub1jp,
    BoundId.UB1A: _ub1a,
    BoundId.UB1B: _ub1b,
    BoundId.UB1C: _ub1c,
    BoundId.UB1D: _ub1d,
    BoundId.LB1JP: _lb1jp,
    BoundId.LB1A: _lb1a,
    BoundId.LB1B: _lb1b,
    BoundId.LB1C: _lbc,
    BoundId.LB1D: _lb1d,
    BoundId.UB2JP: _ub2jp,
    BoundId.UB2A: _ub2a,
    BoundId.UB2D: _ub2d,
    BoundId.LB2JP: _lb2jp,
    BoundId.LB2A: _lb2a,
    BoundId.LB2B: _lb2b,
    BoundId.LB2C: _lbc,
    BoundId.LB2D: _lb2d,
}


def _evaluate_in_regime(bid: BoundId, k: _KernelsGe | _KernelsLt) -> BoundEval:
    """Formula call and clamp for an id whose family's record is ``k``."""
    raw = _FORMULAS[bid](k)
    return _new_record(BoundEval, (bid, raw, min(1.0, max(0.0, raw)), bid.side))


def evaluate(bid: BoundId, args: QArgs) -> BoundEval:
    """Evaluate any cataloged bound by id.

    Raises RegimeError outside the id's regime (b = a belongs to both)
    and SingularityError at a formula's excluded points.  Each call
    builds the family's whole kernel record, so callers evaluating
    several ids at one point use ``eval_ids`` or ``eval_all``.  A kernel
    that overflows raises for every id of its family, where a + b
    exceeds about 1.3e154.
    """
    _require_regime(bid, args)
    return _evaluate_in_regime(bid, _kernels(bid.regime, args.a, args.b))


def eval_ids(ids: Iterable[BoundId], args: QArgs) -> tuple[list[BoundEval], dict[BoundId, str]]:
    """Evaluate the given ids at one point, in order.

    Returns the successful evaluations plus a map of skipped ids to the
    message ``evaluate`` would raise: ids outside the point's regime and
    formulas at their excluded points are skipped, not raised.  At most
    one kernel record per regime is built.
    """
    a, b = args.a, args.b
    records: dict[Regime, _KernelsGe | _KernelsLt] = {}
    evals: list[BoundEval] = []
    skipped: dict[BoundId, str] = {}
    for bid in ids:
        try:
            _require_regime(bid, args)
            k = records.get(bid.regime)
            if k is None:
                k = records[bid.regime] = _kernels(bid.regime, a, b)
            evals.append(_evaluate_in_regime(bid, k))
        except (RegimeError, SingularityError) as exc:
            skipped[bid] = str(exc)
    return evals, skipped


def eval_all(args: QArgs) -> tuple[list[BoundEval], dict[BoundId, str]]:
    """Evaluate every bound applicable to the regime of ``args``.

    Returns the successful evaluations plus a map of skipped ids to the
    reason (singular formulas at their excluded points are skipped, not
    raised).
    """
    # the family is the regime's, so no id in it needs the regime check
    regime = regime_of(args)
    k = _kernels(regime, args.a, args.b)
    evals: list[BoundEval] = []
    skipped: dict[BoundId, str] = {}
    for bid in FAMILY_B_GE_A if regime is Regime.BGeqA else FAMILY_B_LT_A:
        try:
            evals.append(_evaluate_in_regime(bid, k))
        except SingularityError as exc:
            skipped[bid] = str(exc)
    return evals, skipped
