"""Catalog of 18 closed-form upper/lower bounds on Q1(a, b).

Two argument regimes are covered.  For b >= a the integrand of Q1 is
monotone beyond b and the *1* family applies (UB1*/LB1*); for b < a the
complement 1 - Q1 is bounded instead and the *2* family applies
(UB2*/LB2*).  The JP bounds come from sandwiching I0 between
(e^x + 3)/(e^b + 3)- and sinh-ratio approximations anchored at the
integration boundary; the A/B/C/D families are the classical
alternatives they are compared against.

Each family is one function, ``_family_ge(a, b)`` for b >= a and
``_family_lt(a, b)`` for b <= a.  It computes the kernels its formulas
share (ab, i0e(ab) and, for b <= a, log I0(ab) from the same
polynomial, the Gaussian factors, erfc terms) once and returns every
raw value of the family as one tuple, in ``FAMILY_B_GE_A`` or
``FAMILY_B_LT_A`` order; a formula singular at the point holds its
``SingularityError`` in its slot.  Each ``BoundId`` carries one plan,
(family function, slot, side, regime), read once per evaluation.
``eval_ids`` is the one loop over ids: per id it reads the plan,
compares the id's regime with the point's, takes the slot of a family
computed at most once per call and builds its record there;
``evaluate`` runs it over one id, raising what it would skip.
``eval_all`` takes the point's family whole and writes its records out,
one per slot with its id and side as constants: through a generic loop,
assembly cost more than the formulas.  Where a slot is singular, which
happens only at b = a or, for LB2A, at b = 0, it hands the family's raw
values to ``eval_ids``' loop instead.  A record clamps its raw value
by two comparisons, the double min(1.0, max(0.0, raw)) gives (NaN and
-0.0 giving 0.0).  Every expression keeps the association order of its
formula written out over (a, b).

Every a, b that ``QArgs`` takes, up to sqrt(DBL_MAX) ~ 1.34e154, gives
finite values: a^2, b^2, ab and (b - a)^2 stay finite there, and a
Gaussian factor whose exponent still overflows ((a + b)^2, (a^2 - b^2)^2)
is 0.0.  Raw values may fall outside [0, 1] (some classical bounds
are unbounded in corners); ``BoundEval.clamped`` restricts them to
[0, 1], the double ``min(1.0, max(0.0, raw))`` gives (NaN -> 0.0).
LB2A is the corrected form: the paper prints its erfc term without the
zeta factor the derivation gives.  Nothing is kept across calls.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, RegimeError, SingularityError, _exact
from .oracle import MAX_ARG, QArgs, _new_record
from .specfun import _i0e_and_log_i0, bessel_i0_scaled, erfc_diff, erfc_diff_centered, log_bessel_i0

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

# the two regimes as module globals: an attribute of an Enum class costs
# about 100 ns to read, a global about 10
_B_GE_A, _B_LT_A = Regime.BGeqA, Regime.BLtA


class BoundEval(NamedTuple):
    """One evaluated bound: raw formula value and its [0, 1] clamp."""

    id: BoundId
    raw: float
    clamped: float
    side: str


def regime_of(args: QArgs) -> Regime:
    return _B_GE_A if args.b >= args.a else _B_LT_A


def eps_pct(raw: float, exact: float) -> float:
    """Tightness 100 |raw - exact| / exact in percent; inf when exact <= 0."""
    return 100.0 * abs(raw - exact) / exact if exact > 0.0 else math.inf


def _regime_message(bid: BoundId, args: QArgs) -> str:
    """The message of the RegimeError ``bid`` raises at a point outside its regime."""
    need = "b >= a" if bid.regime is Regime.BGeqA else "b <= a"
    return f"{bid.value} requires {need}, got (a={_exact(args.a)}, b={_exact(args.b)})"


def _gauss(x: float) -> float:
    """e^(-x^2/2); 0.0 where x^2 overflows, as e^(-x^2/2) underflowed long before."""
    try:
        return math.exp(-0.5 * x ** 2)
    except OverflowError:
        return 0.0


def _zeta(a: float, b: float, log_i0: float) -> float:
    """``compute_zeta`` for a > 0 and b > 0, given log_i0 = log I0(ab)."""
    ab = a * b
    if ab < SMALL_AB_LIMIT:
        return 0.25 * a * ab
    return min(log_i0 / b, a)


def compute_zeta(args: QArgs) -> float:
    """Exponential rate zeta = log(I0(ab)) / b; satisfies 0 <= zeta <= a.

    log I0(ab) comes from ``log_bessel_i0``, which neither cancels as
    ab -> 0 nor overflows at large ab.  Below ab = SMALL_AB_LIMIT,
    log I0(ab) = y (1 - y/4 + ...) with y = (ab)^2/4 < 2.5e-17, so
    zeta = y/b = a ab/4 to double precision; written that way it does not
    underflow where y does.  Past ab ~ 1e16, a - zeta can fall below half
    an ulp of a, and the rounded quotient is a or (from a ~ 8e8) an ulp
    above it; zeta is clamped to a there.
    """
    a, b = args.a, args.b
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"zeta requires a > 0 and b > 0, got (a={_exact(a)}, b={_exact(b)})")
    return _zeta(a, b, log_bessel_i0(a * b))


def lb1jp_small_ab_limit(a: float, b: float) -> float:
    """Analytic ab -> 0 limit of the sinh-ratio lower bound.

    The erfc difference vanishes linearly in a against the 1/(2a)
    prefactor, leaving (e^(-(b-a)^2/2) + e^(-(b+a)^2/2)) / 2, which tends
    to the exact value e^(-b^2/2).
    """
    return 0.5 * (_gauss(b - a) + _gauss(b + a))


# A product or quotient in the two families below keeps the association
# of the scaled prefactor it spells out: i0e/(1 + 3e^-ab) is I0(ab)/(e^ab + 3)
# and b i0e/(-expm1(-2ab)) is b I0(ab)/(e^ab - e^-ab), each evaluated
# before the factor that follows it.


def _family_ge(a: float, b: float) -> tuple:
    """Raw values of the b >= a family at (a, b), in FAMILY_B_GE_A order."""
    ab = a * b
    i0e = bessel_i0_scaled(ab)  # e^-ab I0(ab)
    g_diff = math.exp(-0.5 * (b - a) ** 2)
    g_sq = math.exp(-0.5 * (a * a + b * b))
    g_sum = _gauss(a + b)
    erfc = math.erfc((b - a) / _SQRT2)
    t = math.atan2(b, a) / math.pi

    # UB1A's brace, and UB1JP's up to its last term
    brace_a = g_diff + a * _SQRT_HALF_PI * erfc
    ub1jp = i0e / (1.0 + 3.0 * math.exp(-ab)) * (brace_a + 3.0 * g_sq)
    ub1a = i0e * brace_a
    ub1b = SingularityError(f"UB1B is singular at b = a = {_exact(a)}") if b == a else b / (b - a) * g_diff
    # e^(-(a^2+b^2)/2) I0(ab) == i0e(ab) e^(-(a-b)^2/2)
    ub1c = i0e * g_diff + a * _SQRT_PI_8 * erfc
    ub1d = (1.0 - t) * g_diff + t * g_sq

    if ab < SMALL_AB_LIMIT:
        lb1jp = lb1jp_small_ab_limit(a, b)
    else:
        # the erfc pair is centered at b/sqrt2 with exact width a*sqrt2, which
        # keeps full relative accuracy down to the small-ab branch threshold
        pref = b * i0e / (-math.expm1(-2.0 * ab))
        lb1jp = _SQRT_HALF_PI * pref * erfc_diff_centered(b / _SQRT2, a * _SQRT2)
    lb1a = _SQRT_HALF_PI * b * i0e * erfc
    # at a = b = 0, the limit of b/(b+a) e^(-(b+a)^2/2) along a = 0
    lb1b = 1.0 if a == 0.0 and b == 0.0 else b / (b + a) * g_sum
    lb1c = i0e * g_diff
    lb1d = (1.0 - t) * g_sq + t * g_sum
    return ub1jp, ub1a, ub1b, ub1c, ub1d, lb1jp, lb1a, lb1b, lb1c, lb1d


def _family_lt(a: float, b: float) -> tuple:
    """Raw values of the b <= a family at (a, b), in FAMILY_B_LT_A order."""
    ab = a * b
    i0e, log_i0 = _i0e_and_log_i0(ab)
    g_a = math.exp(-0.5 * a * a)
    g_diff = math.exp(-0.5 * (b - a) ** 2)
    tail = erfc_diff(-a / _SQRT2, (b - a) / _SQRT2)  # erfc(-a/sqrt2) - erfc((b-a)/sqrt2)

    brace = 4.0 * g_a - g_diff - 3.0 * math.exp(-0.5 * (a * a + b * b)) + a * _SQRT_HALF_PI * tail
    ub2jp = 1.0 - i0e / (1.0 + 3.0 * math.exp(-ab)) * brace
    ub2a = 1.0 - i0e * (g_a - g_diff + a * _SQRT_HALF_PI * tail)
    s = a * a + b * b
    if s == 0.0:
        # subnormal a, b: the exponent (a^2-b^2)^2/(2s) <= s/2 vanishes
        ub2d = 1.0
    else:
        d = a * a - b * b  # >= 0 for b <= a
        # d^2 overflows exactly when d > sqrt(DBL_MAX); the exponent then exceeds 1e137
        g_d = 0.0 if d > MAX_ARG else math.exp(-(d ** 2) / (2.0 * s))
        ub2d = 1.0 - math.atan2(b, a) / math.pi * (g_d - math.exp(-0.5 * s))

    if ab == 0.0:
        # empty complement integral at b = 0; the product can also
        # underflow for subnormal b, where the bound is 1 to within 1e-300
        lb2jp = 1.0
    else:
        bracket = math.erf(a / _SQRT2) - 0.5 * math.erf((a - b) / _SQRT2) - 0.5 * math.erf((a + b) / _SQRT2)
        pref = b * i0e / (-math.expm1(-2.0 * ab))
        lb2jp = 1.0 - _SQRT_TWO_PI * pref * bracket
    # 1 - int_0^b x e^(zeta x - (x^2+a^2)/2) dx, with the zeta factor on the
    # erfc term that the paper's print lacks; _zeta(a, 0.0, 0.0) is 0.0, unused
    z = _zeta(a, b, log_i0)
    lb2a = SingularityError("LB2A requires b > 0 (its rate zeta is undefined at b = 0)") if b == 0.0 else 1.0 - (
        math.exp(-0.5 * (a * a - z * z))
        * (math.exp(-0.5 * z * z) - math.exp(-0.5 * (b - z) ** 2) + z * _SQRT_HALF_PI * erfc_diff(-z / _SQRT2, (b - z) / _SQRT2))
    )
    lb2b = SingularityError(f"LB2B is singular at a = b = {_exact(a)}") if a == b else 1.0 - a / (a - b) * g_diff
    lb2c = i0e * g_diff
    if a == 0.0:
        # b <= a leaves only the tie a = b = 0, where asin(b/a) is 0/0
        lb2d = SingularityError(f"LB2D is singular at a = b = {_exact(a)}")
    else:
        lb2d = 1.0 - math.asin(b / a) / math.pi * (g_diff - _gauss(a + b))
    return ub2jp, ub2a, ub2d, lb2jp, lb2a, lb2b, lb2c, lb2d


# each id's plan, read once per evaluation: its family function, its slot
# in the tuple that returns, its side and its regime
for _fn, _members in ((_family_ge, FAMILY_B_GE_A), (_family_lt, FAMILY_B_LT_A)):
    for _i, _bid in enumerate(_members):
        _bid._plan = (_fn, _i, _bid.side, _bid.regime)

# each family's ids as module globals, which eval_all's written-out records read
_UB1JP, _UB1A, _UB1B, _UB1C, _UB1D, _LB1JP, _LB1A, _LB1B, _LB1C, _LB1D = FAMILY_B_GE_A
_UB2JP, _UB2A, _UB2D, _LB2JP, _LB2A, _LB2B, _LB2C, _LB2D = FAMILY_B_LT_A


def evaluate(bid: BoundId, args: QArgs) -> BoundEval:
    """Evaluate any cataloged bound by id.

    Raises RegimeError outside the id's regime (b = a belongs to both)
    and SingularityError at a formula's excluded points.  It is
    ``eval_ids`` over the one id, so it computes the id's whole family;
    callers evaluating several ids at one point use ``eval_ids`` or
    ``eval_all``.
    """
    evals, skipped = eval_ids((bid,), args)
    if evals:
        return evals[0]
    # eval_ids skips a foreign id only off the tie b = a; in the point's
    # regime or at the tie, the skip is the formula's singularity
    error = SingularityError if args.a == args.b or bid.regime is regime_of(args) else RegimeError
    raise error(skipped[bid])


def eval_ids(ids: Iterable[BoundId], args: QArgs) -> tuple[list[BoundEval], dict[BoundId, str]]:
    """Evaluate the given ids at one point, in order.

    Returns the successful evaluations plus a map of skipped ids to the
    message ``evaluate`` would raise: ids outside the point's regime and
    formulas at their excluded points are skipped, not raised.  Each
    family is computed at most once.
    """
    return _eval_ids(ids, args, {})


def _eval_ids(ids: Iterable[BoundId], args: QArgs, families: dict) -> tuple[list[BoundEval], dict[BoundId, str]]:
    """``eval_ids`` given ``families``, each family function's raw values at args already in hand."""
    a, b = args
    # the regime whose ids are skipped here: the other one than the
    # point's, or none at the tie b = a, which both admit
    foreign = None if a == b else _B_LT_A if b >= a else _B_GE_A
    evals: list[BoundEval] = []
    skipped: dict[BoundId, str] = {}
    last = None  # the family of the previous id, whose raw values are ``values``
    for bid in ids:
        family, slot, side, regime = bid._plan
        if regime is foreign:
            skipped[bid] = _regime_message(bid, args)
            continue
        if family is not last:
            values = families.get(family)
            if values is None:
                values = families[family] = family(a, b)
            last = family
        raw = values[slot]
        if type(raw) is SingularityError:
            skipped[bid] = str(raw)
        else:
            evals.append(_new_record(BoundEval, (bid, raw, (raw if raw < 1.0 else 1.0) if raw > 0.0 else 0.0, side)))
    return evals, skipped


def eval_all(args: QArgs) -> tuple[list[BoundEval], dict[BoundId, str]]:
    """Evaluate every bound applicable to the regime of ``args``.

    Returns the successful evaluations plus a map of skipped ids to the
    reason (singular formulas at their excluded points are skipped, not
    raised).  The same records ``eval_ids`` gives over the point's family,
    written out slot by slot from the family's raw values.  A
    SingularityError orders with no float, so a singular slot makes its
    clamp raise TypeError, and ``eval_ids``' loop takes the raws in hand.
    """
    a, b = args
    if b >= a:
        raws = _family_ge(a, b)
        ub1jp, ub1a, ub1b, ub1c, ub1d, lb1jp, lb1a, lb1b, lb1c, lb1d = raws
        try:
            return [
                _new_record(BoundEval, (_UB1JP, ub1jp, (ub1jp if ub1jp < 1.0 else 1.0) if ub1jp > 0.0 else 0.0, "upper")),
                _new_record(BoundEval, (_UB1A, ub1a, (ub1a if ub1a < 1.0 else 1.0) if ub1a > 0.0 else 0.0, "upper")),
                _new_record(BoundEval, (_UB1B, ub1b, (ub1b if ub1b < 1.0 else 1.0) if ub1b > 0.0 else 0.0, "upper")),
                _new_record(BoundEval, (_UB1C, ub1c, (ub1c if ub1c < 1.0 else 1.0) if ub1c > 0.0 else 0.0, "upper")),
                _new_record(BoundEval, (_UB1D, ub1d, (ub1d if ub1d < 1.0 else 1.0) if ub1d > 0.0 else 0.0, "upper")),
                _new_record(BoundEval, (_LB1JP, lb1jp, (lb1jp if lb1jp < 1.0 else 1.0) if lb1jp > 0.0 else 0.0, "lower")),
                _new_record(BoundEval, (_LB1A, lb1a, (lb1a if lb1a < 1.0 else 1.0) if lb1a > 0.0 else 0.0, "lower")),
                _new_record(BoundEval, (_LB1B, lb1b, (lb1b if lb1b < 1.0 else 1.0) if lb1b > 0.0 else 0.0, "lower")),
                _new_record(BoundEval, (_LB1C, lb1c, (lb1c if lb1c < 1.0 else 1.0) if lb1c > 0.0 else 0.0, "lower")),
                _new_record(BoundEval, (_LB1D, lb1d, (lb1d if lb1d < 1.0 else 1.0) if lb1d > 0.0 else 0.0, "lower")),
            ], {}
        except TypeError:
            return _eval_ids(FAMILY_B_GE_A, args, {_family_ge: raws})
    raws = _family_lt(a, b)
    ub2jp, ub2a, ub2d, lb2jp, lb2a, lb2b, lb2c, lb2d = raws
    try:
        return [
            _new_record(BoundEval, (_UB2JP, ub2jp, (ub2jp if ub2jp < 1.0 else 1.0) if ub2jp > 0.0 else 0.0, "upper")),
            _new_record(BoundEval, (_UB2A, ub2a, (ub2a if ub2a < 1.0 else 1.0) if ub2a > 0.0 else 0.0, "upper")),
            _new_record(BoundEval, (_UB2D, ub2d, (ub2d if ub2d < 1.0 else 1.0) if ub2d > 0.0 else 0.0, "upper")),
            _new_record(BoundEval, (_LB2JP, lb2jp, (lb2jp if lb2jp < 1.0 else 1.0) if lb2jp > 0.0 else 0.0, "lower")),
            _new_record(BoundEval, (_LB2A, lb2a, (lb2a if lb2a < 1.0 else 1.0) if lb2a > 0.0 else 0.0, "lower")),
            _new_record(BoundEval, (_LB2B, lb2b, (lb2b if lb2b < 1.0 else 1.0) if lb2b > 0.0 else 0.0, "lower")),
            _new_record(BoundEval, (_LB2C, lb2c, (lb2c if lb2c < 1.0 else 1.0) if lb2c > 0.0 else 0.0, "lower")),
            _new_record(BoundEval, (_LB2D, lb2d, (lb2d if lb2d < 1.0 else 1.0) if lb2d > 0.0 else 0.0, "lower")),
        ], {}
    except TypeError:
        return _eval_ids(FAMILY_B_LT_A, args, {_family_lt: raws})
