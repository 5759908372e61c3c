"""Reference (ground-truth) evaluation of the first-order Marcum Q-function.

Q1(a, b) is the upper-tail integral of the Rice density

    R(x) = x exp(-(x^2 + a^2)/2) I0(a x),    Q1(a, b) = int_b^inf R(x) dx.

Six methods are provided; ``q1_reference`` cross-validates two of them:

  * ``q1_quadrature``: adaptive Gauss-Kronrod (G7/K15) integration of the
    Rice density, written in the scaled form x e^(-(x-a)^2/2) i0e(a x),
    over the tail from b to a + 20, past which no panel can move the
    resulting double.  Root panels end at the seeds a + 1, a + 2, a + 5
    and a + 10 inside that range.
  * ``q1_series``: the noncentral chi-square mixture representation

        Q1(a, b) = sum_k  Pois(k; a^2/2) * P[Pois(b^2/2) <= k],

    summed in one compensated pass over a window of each Poisson factor
    from k = 0, with an explicit geometric bound on the mass past it.  In
    the band below a window holds at most 102 entries.
  * ``q1_asymptotic``: the large-xi expansion (xi = ab) in terms of erfc
    of Gil, Segura & Temme, "Algorithm 939: Computation of the Marcum
    Q-function", ACM TOMS 40(3), 2014, section 3 (after Temme 1993).
    For b >= a, with rho = b/a and w = (b - a)/sqrt(2),

        Q1 ~ sqrt(rho) erfc(w)/2 + rho sqrt(xi)/(2 sqrt(2 pi))
             * sum_{n>=1} (-1)^n (alpha_n(0) - alpha_n(1)/rho) xi^-n G_n,

    where alpha_n(nu) are the Hankel coefficients of I_nu and G_n follow
    G_1 = 2(e^-w^2 - sqrt(pi) w erfc(w)), G_n = (e^-w^2 - w^2 G_{n-1})/(n - 1/2).
    For b < a it uses Q1(a, b) = 1 + e^(-(a-b)^2/2) i0e(ab) - Q1(b, a),
    with i0e from its own Hankel sum.  erfc(w) and e^-w^2 are taken at
    the true w = (b - a)/sqrt(2): the roundings of b - a, of w and of w^2
    are carried to first order (Dekker), as a rounded w costs their
    relative slope 2w^2 times an ulp (1.2e-13 at b - a = 30).  Its
    domain is large xi with (b - a)^2 small against xi; there each sum
    is one straight loop of a few terms, O(1) time and memory.  Outside,
    its terms grow before reaching double precision and ConvergenceError
    is raised.
  * ``q1_trapezoid``: the trapezoid rule on Simon's finite-range
    integral with e^-(b-a)^2/2 factored out, accurate relative to its
    value (to about 1e-15) also far below the double range.  It gives Q1
    for b > a and 1 - Q1 for b < a as a scaled value, an exponent and a
    bound on its error, at about 15 nodes on the far tail (up to about
    120 just past |b - a| = 1) however large ab is: the strip theorem for
    the periodic trapezoid rule sizes N once.
  * ``q1_diagonal``: for |b - a| <= 1, the exact diagonal
    Q1(a, a) = (1 + i0e(a^2))/2 minus the integral of the Rice density
    from a to b by a fixed 10-point Gauss-Legendre rule in the offset
    t = x - a, to about 1e-16 absolute in at most 11 Bessel calls.
  * ``q1_bessel_series``: Marcum's series in e^-x I_k(x), x = ab, from
    the generating function of I_k, with the ratios I_k/I_(k-1) from a
    forward recurrence where its K terms have K^2 <= ab, and a backward
    one elsewhere, summed during it in O(1) memory.  Like the trapezoid
    it gives Q1 for b >= a and 1 - Q1 for b < a as a scaled value and an
    exponent, accurate relative to the value (to about 1e-15).  It
    refuses a point needing more than 1e5 recurrence steps; every a < 100
    off b = a needs at most about 1,000.

``q1_reference`` pairs two methods by region.  The two of a pair share
no code, except that the trapezoid and the Bessel series take the
exponent from one helper, so that the gate compares it exactly.  In the
band, a <= b <= a + 1 with ab < 25 (so a < 5), it pairs the quadrature
with the Poisson series, which run at an absolute tolerance of
DEFAULT_TOL = 1e-12 and answer in the band only, and returns their mean.
Everywhere else method a is the diagonal route (|b - a| <= 1) or the
trapezoid (beyond), whose value is Q1 for b > a and 1 - Q1 for b < a;
where b < a and (a - b)^2/2 > 745, 1 - Q1 underflows and method a is
exactly 1.0, as the expansion is.  Its partner is the expansion where
that converges to full precision and Q1 stays a normal double: from
ASYMPTOTIC_MIN_A on at every b (the Bessel series' depth grows as
sqrt(ab), and there ab < 1e3 forces b < 10, where 1 - Q1 underflows),
and below it where ab >= 25, b >= a - 1, (b - a)^2 <= ab and
(b - a)^2/2 <= 650.  Elsewhere it is the Bessel series, which also
holds the gate relative to 1 - Q1 past b = a - 1, where the expansion
cannot.  It returns method a's value.  One check gates every pair: it
fails loudly unless the two agree to 1e-12 relative to method a (of the
smallest normal double below it), on their (scaled, exponent) pairs
where the trapezoid meets the Bessel series, so that it holds however
far Q1 or 1 - Q1 underflows, and on their Q1 values elsewhere.

Every method takes a ``QArgs``, the validated pair, which holds the one
range check of the library: a, b <= MAX_ARG = sqrt(DBL_MAX), where a^2,
b^2 and ab stay finite.  Two plain floats in [0, MAX_ARG] pass one chained
comparison; ints, float subclasses, bools, NaN, inf, negatives and values
past the range take the per-field checks.  Every method answers up to
MAX_ARG, except the band pair ``q1_quadrature`` and ``q1_series``, which
refuse every point outside the band with one DomainError.

Every function here keeps call-local state only, so it is safe to call
from any number of threads.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .errors import ConvergenceError, CrossValidationError, DomainError, _brief
from .specfun import bessel_i0_scaled, bessel_i1_scaled

# from here on q1_reference pairs q1_diagonal or q1_trapezoid with
# q1_asymptotic at every b; below it, only where _expansion_checks holds
ASYMPTOTIC_MIN_A = 100.0
# the expansion's route below ASYMPTOTIC_MIN_A starts at ab = _EXPANSION_MIN_XI
# and ends at d = (b - a)^2/2 = _EXPANSION_MAX_EXPONENT (see _expansion_checks)
_EXPANSION_MIN_XI = 25.0
_EXPANSION_MAX_EXPONENT = 650.0
DEFAULT_TOL = 1e-12
MAX_ARG = 1.3407807929942596e154  # sqrt(DBL_MAX): QArgs refuses a or b above this
# q1_reference's one gate, relative to method a: on the trapezoid's and the Bessel
# series' scaled values where both ran, and on the two values of every other pair
_RELATIVE_GATE = 1e-12
# q1_diagonal covers |b - a| <= _DIAGONAL_SPAN; past it Q1(a, a) minus the
# integral no longer keeps relative accuracy (1e-11 at (50, 54), Q1 = 3.3e-5)
_DIAGONAL_SPAN = 1.0
_EPSILON = 2.220446049250313e-16  # the spacing of doubles at 1.0
# q1_trapezoid: the proven bound on its error must be within _TRAPEZOID_TOL of
# the value; rounding is taken as _TRAPEZOID_ULPS ulps of each term's size
_TRAPEZOID_TOL = 1e-15
_TRAPEZOID_ULPS = 2.0
# ln(2/tol'), tol' the strip term's share of _TRAPEZOID_TOL: what the rounding's
# ulps + 1 leave, less half an ulp of margin
_TRAPEZOID_LN_STRIP = math.log(2.0 / (_TRAPEZOID_TOL - (_TRAPEZOID_ULPS + 1.5) * _EPSILON))
_TRAPEZOID_CUT = 50.0  # nodes where 2ab sin^2(phi/2) exceeds this are left out
_TRAPEZOID_MAX_NODES = 4096
# q1_bessel_series stops where sum (ln(1/zeta) + asinh(j/x)) reaches this (e^-39.2 = 1e-17),
# and refuses a point needing more backward recurrence steps than the cap
_BESSEL_DEPTH = 39.2
_BESSEL_MAX_STEPS = 100_000
_MAX_PANELS = 2000  # the quadrature's panel budget
_EXP_UNDERFLOW = 745.0  # exp(-x) is 0.0 in double precision past this
_SQRT_PI = math.sqrt(math.pi)
# 1/sqrt(2) = _RSQRT2 + _RSQRT2_LO, and the double's Dekker halves _RSQRT2_HI + _RSQRT2_TL
_RSQRT2 = math.sqrt(0.5)
_RSQRT2_LO = -4.833646656726457e-17
_RSQRT2_HI = 134217729.0 * _RSQRT2 - (134217729.0 * _RSQRT2 - _RSQRT2)
_RSQRT2_TL = _RSQRT2 - _RSQRT2_HI
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_DOUBLE = 1.7976931348623157e308
_MIN_NORMAL = 2.2250738585072014e-308  # the smallest normal double
# builds a NamedTuple from its fields in order without the frame of its generated __new__, at half the cost
_new_record = tuple.__new__


class QArgs(NamedTuple("_QArgsFields", [("a", float), ("b", float)])):
    """Argument pair of Q1: noncentrality-like a >= 0 and threshold b >= 0."""

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> QArgs:
        # two exact floats in [0, MAX_ARG], the common case, pass one test;
        # anything else (ints, float subclasses, NaN, inf, negatives, values
        # past the range) takes the checks below
        if type(a) is float is type(b) and 0.0 <= a <= MAX_ARG >= b >= 0.0:
            return tuple.__new__(cls, (a, b))
        for name, v in (("a", a), ("b", b)):
            # abs() <= the largest double also rejects NaN, +-inf and ints too big for a float
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= _MAX_DOUBLE:
                raise DomainError(f"{name} must be finite, got {_brief(v)}")
            if v < 0:
                raise DomainError(f"{name} must be nonnegative, got {_brief(v)}")
        if a > MAX_ARG or b > MAX_ARG:
            raise DomainError(f"Q1 takes a, b <= sqrt(DBL_MAX) = {MAX_ARG!r}, got (a={_brief(a)}, b={_brief(b)})")
        return tuple.__new__(cls, (a, b))

    # _replace builds through _make; route it through the checks above
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def _in_band(a: float, b: float) -> bool:
    """Whether (a, b) lies in the band a <= b <= a + 1, ab < 25 (so a < 5).

    The band is where ``q1_reference`` pairs the quadrature with the
    Poisson series, and the one domain of the two.  Past ab = 25 the
    expansion checks the diagonal route instead (``_expansion_checks``).
    """
    return a * b < _EXPANSION_MIN_XI and a <= b <= a + _DIAGONAL_SPAN


def _expansion_checks(a: float, b: float) -> bool:
    """Whether ``q1_reference`` takes the expansion as method b at (a, b), a < ASYMPTOTIC_MIN_A, off the band.

    It does where ab >= 25, b >= a - 1, (b - a)^2 <= ab and
    d = (b - a)^2/2 <= 650.  There the expansion converges to about 1e-15
    relative (at 20,000 seeded points with (b - a)^2 <= 2ab its terms
    grew short of that only below ab = 18.6), and Q1 >= e^-650 is a
    normal double, so the gate stays relative to Q1.  Past b = a - 1 the
    gate is relative to 1 - Q1, which only the Bessel series matches.
    """
    delta = b - a
    sq, x = delta * delta, a * b
    return x >= _EXPANSION_MIN_XI and delta >= -_DIAGONAL_SPAN and sq <= x and 0.5 * sq <= _EXPANSION_MAX_EXPONENT


def _check_band(args: QArgs) -> None:
    """Raise DomainError, with the band pair's one message, unless (a, b) is in the band."""
    if not _in_band(*args):
        raise DomainError(
            f"the quadrature and the Poisson series cover a <= b <= a + {_DIAGONAL_SPAN:g} with "
            f"ab < {_EXPANSION_MIN_XI:g}, got (a={_brief(args.a)}, b={_brief(args.b)})"
        )


class OracleResult(NamedTuple):
    """Cross-validated reference value with both method values."""

    value: float
    # the quadrature in the band a <= b <= a + 1, ab < 25; elsewhere the
    # diagonal route where |b - a| <= 1 and the trapezoid's Q1 beyond
    # (see q1_reference)
    method_a_value: float
    method_b_value: float  # the method named by method_b
    agreement_gap: float  # |method_a_value - method_b_value|
    # "series" in the band, else "asymptotic" from a = 100 on and below it
    # where _expansion_checks holds, and "bessel_series" elsewhere
    method_b: str


def rice_pdf(x: float, a: float) -> float:
    """Rice density x exp(-(x^2+a^2)/2) I0(ax), evaluated in scaled form.

    x and a must lie in [0, MAX_ARG], the range ``QArgs`` takes, where
    (x - a)^2 and a*x stay finite; DomainError is raised otherwise.
    """
    if not 0.0 <= x <= MAX_ARG >= a >= 0.0:
        raise DomainError(
            f"rice_pdf takes x, a in [0, sqrt(DBL_MAX) = {MAX_ARG!r}], got x={_brief(x)}, a={_brief(a)}"
        )
    return x * math.exp(-0.5 * (x - a) ** 2) * bessel_i0_scaled(a * x)


# G7/K15 nodes: (abscissa, Gauss weight, Kronrod weight)
_GK15 = (
    (0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
    (0.0, 0.417959183673469, 0.209482141084728),
)


def _gk15_panel(f, lo: float, hi: float) -> tuple[float, float]:
    """(value, error) of one G7/K15 panel."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    g = k = 0.0
    for z, wg, wk in _GK15:
        fz = f(c + h * z)
        g += wg * fz
        k += wk * fz
    g *= h
    k *= h
    d = abs(k - g)
    return k, min(d, (200.0 * d) ** 1.5)


def _adaptive_quad(f, lo, hi, seeds=()):
    """Globally adaptive G7/K15 with largest-error-first bisection to DEFAULT_TOL.

    Root panels end at the seeds inside (lo, hi).  Raises
    ConvergenceError past _MAX_PANELS panels.
    """
    pts = sorted({lo, hi, *(p for p in seeds if lo < p < hi)})
    heap = []
    for left, right in zip(pts, pts[1:]):
        v, e = _gk15_panel(f, left, right)
        heap.append((-e, left, right, v))
    heapq.heapify(heap)
    n = len(heap)
    while True:
        if math.fsum(-entry[0] for entry in heap) <= DEFAULT_TOL:
            return math.fsum(entry[3] for entry in heap)
        if n >= _MAX_PANELS:
            raise ConvergenceError(
                f"quadrature used {n} panels without reaching tol={DEFAULT_TOL:g}"
            )
        _, left, right, _ = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        v1, e1 = _gk15_panel(f, left, mid)
        v2, e2 = _gk15_panel(f, mid, right)
        heapq.heappush(heap, (-e1, left, mid, v1))
        heapq.heappush(heap, (-e2, mid, right, v2))
        n += 1


def q1_quadrature(args: QArgs) -> float:
    """Q1 in the band by adaptive quadrature of the Rice density, absolute error about DEFAULT_TOL.

    It integrates the tail from b to a + 20, with root panels ending at
    the seeds a + 1, a + 2, a + 5 and a + 10 that lie inside (b, a + 20).
    In the band a + 20 is at least 19 past b, and the density falls as
    e^(-(x - a)^2/2): the tail past a + 20 holds under e^-150 of the
    smallest panel kept, [a + 10, a + 20], far below its ulp, so fsum
    returns the double the full tail gives.

    Raises DomainError outside the band a <= b <= a + 1, ab < 25.
    """
    _check_band(args)
    a, b = args.a, args.b
    if b == 0.0:  # a = b = 0: Q1 = 1 exactly, which the tail integral reaches only to within tol
        return 1.0
    return _adaptive_quad(lambda x: rice_pdf(x, a), b, a + 20, (a + 1, a + 2, a + 5, a + 10))


def _pmf(mean: float, k: int) -> float:
    """Poisson(mean) pmf at k in lgamma form."""
    return math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))


def _poisson_window(mean: float):
    """Poisson(mean) pmf on k = 0 ... m + w, m = int(mean), w = int(12 sqrt(mean)) + 40.

    Nothing lies below the window, and in the band (ab < 25, so
    mean <= b^2/2 < 15.3) it holds at most 102 entries.  The mode term is
    seeded through lgamma and the others follow from it by the exact pmf
    recurrence, so every entry carries the same (tiny) seed error, which
    cancels when sums are normalized by the window mass.  The mass is one
    ``math.fsum``, correctly rounded in any order.

    Returns (pmf, mass, tail): tail bounds the mass past the window by a
    geometric series, as each pmf ratio there is at most mean/(m + w + 1).
    """
    m = int(mean)
    hi = m + int(12.0 * math.sqrt(mean)) + 40
    v = _pmf(mean, m)
    pmf = [v]  # m, m - 1, ..., 0 until reversed
    for k in range(m, 0, -1):
        v *= k / mean
        pmf.append(v)
    pmf.reverse()
    v = pmf[m]
    for k in range(m + 1, hi + 1):
        v *= mean / k
        pmf.append(v)
    r = mean / (hi + 1)
    return pmf, math.fsum(pmf), v * r / (1.0 - r)


def q1_series(args: QArgs) -> float:
    """Q1 in the band by the noncentral chi-square Poisson mixture, absolute error <= DEFAULT_TOL.

    Both Poisson factors are windows from k = 0, wide enough that the
    geometric bounds on the mass past them stay below DEFAULT_TOL/10; a
    ConvergenceError is raised otherwise.  Since the mixture weights sum
    to 1 and the inner factor is a CDF in [0, 1], the discarded mass
    bounds the truncation error directly.  At a = 0 the mixture is the
    closed form e^(-b^2/2).

    Raises DomainError outside the band a <= b <= a + 1, ab < 25.
    """
    _check_band(args)
    lam = args.a * args.a / 2.0
    y = args.b * args.b / 2.0
    if lam == 0.0:
        return math.exp(-y)
    p, pmass, ptail = _poisson_window(lam)
    q, qmass, qtail = _poisson_window(y)
    discarded = ptail + qtail
    if discarded > 0.1 * DEFAULT_TOL:
        raise ConvergenceError(
            f"series windows too narrow for DEFAULT_TOL (discarded mass bound {discarded:.3e})"
        )
    # the mixture terms pair p[k] with the running CDF of Poisson(y) at k,
    # Neumaier-compensated; as y >= lam, q runs at least as far as p, and
    # zip stops at p's end.  The sum and the pmf are >= 0, so the Neumaier
    # branch compares them without abs()
    acc = comp = 0.0
    terms = []
    for x, pk in zip(q, p):
        t = acc + x
        if acc >= x:
            comp += (acc - t) + x
        else:
            comp += (x - t) + acc
        acc = t
        terms.append(pk * ((acc + comp) / qmass))
    return math.fsum(terms) / pmass


def _expansion_error(n: int, t: float) -> ConvergenceError:
    """The error for term n of an asymptotic series that is not finite or grows."""
    if not math.isfinite(t):
        return ConvergenceError(f"asymptotic series term {n} is {t!r} (xi = ab out of range)")
    return ConvergenceError(
        f"asymptotic series term {n} grows before reaching 1e-17 of the sum "
        "(arguments outside the expansion's domain)"
    )


def _i0e_hankel(x: float) -> float:
    """e^-x I0(x) from the Hankel expansion sum_n (-1)^n alpha_n(0) x^-n / sqrt(2 pi x).

    The terms (-1)^n alpha_n(0) x^-n are positive.  The sum stops at the
    first term <= 1e-17 of the total; a term that grows before that, or
    is not finite (x tiny), raises ConvergenceError.
    """
    total = prev = c = 1.0
    n = 0
    while True:
        n += 1
        c *= (2 * n - 1) ** 2 / (8 * n * x)
        if not c <= prev:  # grows, or inf or NaN
            raise _expansion_error(n, c)
        total += c
        if c <= 1e-17 * total:
            return total / (_SQRT_2PI * math.sqrt(x))
        prev = c


def _q1_large_xi(a: float, b: float) -> float:
    """Q1(a, b) for b >= a > 0 by the large-xi expansion (see module docstring).

    The sum stops at the first term <= 1e-17 of the total.  A term that
    grows before that has passed the series' smallest term short of
    double precision, and raises ConvergenceError; so does a term that
    is not finite, which no comparison would stop: at (1e-300, 2) the
    tiny xi = ab makes the second term inf.
    """
    xi, rho = a * b, b / a
    # w = (b - a)/sqrt(2) as w + w_lo, with the roundings of b - a (Fast2Sum) and
    # of the product (Dekker's split) carried, and w^2 = (b - a)^2/2 = w2 + r
    delta = b - a
    c = 134217729.0 * delta
    d_hi = c - (c - delta)
    d_lo = delta - d_hi
    w = delta * _RSQRT2
    w_lo = (
        (((d_hi * _RSQRT2_HI - w) + d_hi * _RSQRT2_TL) + d_lo * _RSQRT2_HI) + d_lo * _RSQRT2_TL
    ) + (delta * _RSQRT2_LO + ((b - delta) - a) * _RSQRT2)
    w2, r = _split_exponent(a, b)
    # erfc and e^-w^2 at the true w, to first order in w_lo and r, from one exp
    e = math.exp(-w2)
    ec, ew = math.erfc(w) - (2.0 / _SQRT_PI) * e * w_lo, e * (1.0 - r)
    # n = 0 in closed form: the product (1 - 1/rho) G_0 cancels near b = a
    total = 0.5 * math.sqrt(rho) * ec
    if not math.isfinite(total):
        raise _expansion_error(0, total)
    if total == 0.0:  # erfc(w) underflows, and e^-w^2 with it
        return total
    prev = abs(total)
    g = 2.0 * (ew - _SQRT_PI * w * ec)
    # rho sqrt(xi)/(2 sqrt(2 pi)) (-1)^n alpha_n(nu) xi^-n for nu = 0, 1
    c0 = c1 = rho * math.sqrt(xi) / (2.0 * _SQRT_2PI)
    n = 1
    while True:
        k, m = (2 * n - 1) ** 2, 8 * n * xi
        c0 *= k / m
        c1 *= (k - 4) / m
        t = (c0 - c1 / rho) * g
        if not abs(t) <= prev:  # grows, or inf or NaN
            raise _expansion_error(n, t)
        total += t
        if abs(t) <= 1e-17 * abs(total):
            return total
        prev = abs(t)
        g = (ew - w2 * g) / (n + 0.5)
        n += 1


def q1_asymptotic(args: QArgs) -> float:
    """Q1 by the large-xi expansion in erfc (GST 2014), O(1) time and memory.

    Accurate to about 1e-15 where xi = ab is large and (b - a)^2 small
    against it, which holds for every b once a >= ASYMPTOTIC_MIN_A.
    Elsewhere the expansion's terms grow first, or xi underflows to 0.0,
    and ConvergenceError is raised.  No Bessel function is called.
    """
    a, b = args.a, args.b
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    if a * b == 0.0:  # both terms' recurrences divide by xi
        raise ConvergenceError(
            f"xi = ab underflows to 0.0 at (a={a!r}, b={b!r}), outside the expansion's domain"
        )
    if b >= a:
        return _q1_large_xi(a, b)
    d = 0.5 * (a - b) ** 2
    if d > _EXP_UNDERFLOW:
        # 1 - Q1 <= e^-d / 2 (Simon-Alouini), which underflows here
        return 1.0
    return 1.0 + math.exp(-d) * _i0e_hankel(a * b) - _q1_large_xi(b, a)


class TrapezoidResult(NamedTuple):
    """Q1, or 1 - Q1 when ``complement``, as scaled * e^-exponent.

    Returned by ``q1_trapezoid`` and ``q1_bessel_series``.
    """

    scaled: float
    exponent: float  # the double 0.5 * (b - a)^2
    complement: bool  # b < a: the value is 1 - Q1
    nodes: int  # nodes of the rule, or the series' terms
    # in units of ``scaled``: the trapezoid's bound on |scaled - S| (strip
    # theorem, left-out nodes, and a model of the rounding), or the
    # series' bound on the terms it leaves out
    error: float

    @property
    def value(self) -> float:
        """scaled * e^-exponent: Q1, or 1 - Q1 when ``complement``."""
        return self.scaled * math.exp(-self.exponent)


def _simon_terms(ks: range, h: float, p: float, q: float, w2: float, z4: float, x: float, exp) -> list[float]:
    """Simon's integrand (p + q v)/(w2 + z4 v) exp(-2x v), v = sin^2(phi/2), at phi = k h for k in ks.

    The exponent is -x (2v), the double -2x v gives, also where 2x = 2ab overflows.
    """
    sin = math.sin
    hh, nx = 0.5 * h, -x
    # k as a float (exact), so each product is a float one
    k, step = float(ks.start), float(ks.step)
    out = []
    for _ in ks:
        s = sin(hh * k)
        k += step
        v = s * s
        out.append((p + q * v) / (w2 + z4 * v) * exp(nx * (v + v)))
    return out


def _simon_terms_dual(
    ks: range, h: float, p: float, q: float, w2: float, z4: float, x: float
) -> tuple[list[float], list[float]]:
    """_simon_terms with exp and with expm1 as lists (f, f1), from one sine, square and rational a node."""
    sin, exp, expm1 = math.sin, math.exp, math.expm1
    hh, nx = 0.5 * h, -x
    k, step = float(ks.start), float(ks.step)
    out, out1 = [], []
    for _ in ks:
        s = sin(hh * k)
        k += step
        v = s * s
        g, e = (p + q * v) / (w2 + z4 * v), nx * (v + v)
        out.append(g * exp(e))
        out1.append(g * expm1(e))
    return out, out1


def _split_exponent(lo: float, hi: float) -> tuple[float, float]:
    """(d, r): the double d = 0.5 * (hi - lo)^2, and r = the true 0.5 (hi - lo)^2 - d.

    hi - lo = delta + delta_lo and delta^2 = sq + sq_lo exactly (Fast2Sum,
    Dekker's split), so the true exponent exceeds d by r; a method that
    returns e^-d times its scaled value multiplies that value by e^-r.
    From d = 2^52 on, where e^-d underflows whatever r is and e^-r itself
    can overflow, r is 0.0: the scaled value is then the integral S alone.
    """
    delta = hi - lo
    sq = delta * delta
    if sq >= 2.0**53:
        return 0.5 * sq, 0.0
    delta_lo = (hi - delta) - lo
    c = 134217729.0 * delta
    d_hi = c - (c - delta)
    d_lo = delta - d_hi
    sq_lo = ((d_hi * d_hi - sq) + 2.0 * d_hi * d_lo) + d_lo * d_lo
    return 0.5 * sq, 0.5 * (sq_lo + delta_lo * (2.0 * delta + delta_lo))


def q1_trapezoid(args: QArgs) -> TrapezoidResult:
    """Q1 (b > a), or 1 - Q1 (b < a), by the trapezoid rule on Simon's integral, with a proven bound.

    With lo, hi = min(a, b), max(a, b), zeta = lo/hi, d = (b - a)^2/2 and
    phi = theta + pi/2 in Simon's finite-range form (IEEE Commun. Lett.
    2(2), 1998), the value is e^-d S with

        S = (1/pi) int_0^pi f(phi) dphi,   f = (P + 1)/2 e^(-ab(1 - cos phi))   (b > a),
                                           f = (P - 1)/2 e^(-ab(1 - cos phi))   (b < a),

    where P = (1 - zeta^2)/D, D = 1 + zeta^2 - 2 zeta cos phi, is the
    Poisson kernel: (P + 1)/2 = (1 - zeta cos phi)/D and (P - 1)/2 =
    zeta (cos phi - zeta)/D.  In v = sin^2(phi/2) these are (p + q v)/(w^2
    + 4 zeta v) e^(-2ab v), w = 1 - zeta.  No Bessel function is called.

    The proof.  f is even and 2 pi-periodic, so the endpoint rule T_N with
    N panels on [0, pi] is the periodic rule with 2N points.  Where f is
    analytic in the strip |Im phi| < alpha with |f| <= M there,

        |T_N - S| <= 2M/(e^(2 alpha N) - 1)

    (Trefethen & Weideman, SIAM Review 56(3), 2014, Theorem 3.2).  On the
    strip |cos phi| <= cosh alpha, Re cos phi <= cosh alpha and, for
    alpha < ln(1/zeta), |D| >= (1 - zeta e^-alpha)(1 - zeta e^alpha) =
    w^2 - 2 zeta (cosh alpha - 1), so with g = ab(cosh alpha - 1)

        M(alpha) <= (1 + zeta cosh alpha)/((1 - zeta e^-alpha)(1 - zeta e^alpha)) e^g   (b > a),

    and the same with the numerator zeta (cosh alpha + zeta) for b < a.
    The b < a integrand changes sign, and its parts cancel as ab -> 0.  As
    P has mean 1 the weight may be taken less 1, as expm1, and on the
    strip |expm1(-ab(1 - cos phi))| <= min(1 + e^g, ab(1 + cosh alpha) e^g),
    which replaces e^g in M.  Where 2ab <= _TRAPEZOID_CUT both weights are
    summed at the same nodes and the one with the smaller bound is kept:
    the rounding term decides, so it is the one with the smaller
    sum |f_k| / |sum f_k|.

    Two more terms complete the bound.  Nodes past the cut phi_c, where
    2ab sin^2(phi/2) = _TRAPEZOID_CUT, are left out, so at most about 40
    are evaluated however large ab is.  P falls as phi grows, so each
    left-out term is at most (P_c + 1)/2 e^-50, P_c being P at the cut;
    where ab > 50 the exponent is convex up to pi/2 and grows from the cut
    at least at the rate ab sin(phi_c), so the left-out terms there sum to
    under a geometric series, and past pi/2 each is under e^-ab
    (``_left_out``).  Rounding is taken as _TRAPEZOID_ULPS ulps of each
    term (the sine, the square, the four operations of the rational and
    the exponential each round once, with errors of either sign), plus an
    ulp of T_N for fsum, the division by N and the exponent's correction:
    ulps * sum |f_k| / N + ulp * |T_N|.  This last term is a model of the
    rounding, not its worst case; the other two are proofs.  ``error`` is
    the sum of the three.  Against 40-digit values it covers the error at
    every frozen point and at 602 random points past the span; at 500
    random b < a points with ab < 25 it did at all but 6, all with
    ab < 1, where the numerator zeta (w - 2v) itself cancels: there the
    error, up to 1.1e-15 of S, reached 1.02 to 1.35 times the bound.

    N is taken once, in closed form.  With L = ln(2/tol'), tol' being what
    _TRAPEZOID_TOL leaves past the rounding, alpha is ln(1/zeta)(1 - 1/L),
    short of the pole, capped at L/2, or the peak's optimum acosh(1 +
    L/ab), where g = L, if that is smaller.  Any alpha gives a valid bound,
    and this one is within a node of the best where S is near 1.  N is the
    least with 2M e^(-2 alpha N) <= tol' S_lo, where S_lo is a lower
    estimate of S: the Gaussian-Lorentzian integral (1 + zeta)/(4w)
    erf(pi c)/(sqrt(pi) c), c^2 = zeta/w^2 + ab/2, which is under the P/2
    part of S as 4 zeta sin^2(phi/2) <= zeta phi^2, 1/(1 + y) >= e^-y and
    2 sin^2(phi/2) <= phi^2/2; plus i0e(ab)/2 ~ 1/(2 sqrt(1 + 2 pi ab))
    for b > a, or less i0e(ab)/2 <= 1/(2 sqrt(1 + 2ab)) for b < a, where
    zeta i1e(ab), from Amos's i1e/i0e >= ab/(1 + sqrt(1 + (ab)^2)) (Math.
    Comp. 28, 1974), is taken if larger.  As S >= |T_N| - error whatever
    S_lo was, the sum is then checked: error <= _TRAPEZOID_TOL (|T_N| -
    error).  Where that fails only for the strip term, N is doubled once,
    reusing every node; ``error`` is returned whether or not the check
    then holds.

    ``exponent`` is the double d = 0.5 * (hi - lo)^2, and ``scaled``
    carries the rounding of hi - lo and of its square, so
    scaled * e^-exponent is the value also far below the double range.

    Raises DomainError at b = a, where the integrand is singular, and
    ConvergenceError, before any node, where the nodes up to
    the cut are more than _TRAPEZOID_MAX_NODES, as happens near b = a,
    where N grows as 1/ln(1/zeta).
    """
    a, b = args
    if a == b:
        raise DomainError(f"the trapezoid needs b != a, got a = b = {_brief(a)}")
    complement = b < a
    lo, hi = (b, a) if complement else (a, b)
    delta = hi - lo
    d, r = _split_exponent(lo, hi)
    zeta = lo / hi
    x = a * b
    if complement and (zeta == 0.0 or x == 0.0):
        # the integrand is 0 at every node: 1 - Q1 ~ e^-d zeta ab/2 underflows
        return _new_record(TrapezoidResult, (0.0, d, complement, 0, 0.0))
    w = delta / hi  # 1 - zeta
    # in v = sin^2(phi/2) the numerators are w + 2 zeta v and zeta w - 2 zeta v
    p, q = (zeta * w, -2.0 * zeta) if complement else (w, 2.0 * zeta)
    pole = math.log1p(delta / lo) if lo > 0.0 else math.inf  # ln(1/zeta)
    # alpha short of the pole, and at most L/2 (one panel's worth), or the
    # peak's optimum acosh(1 + L/ab) = 2 asinh(sqrt(L/(2ab))), where g = L,
    # if that comes first, with L = ln(2/tol'): within a node of the best
    # alpha where S is near 1.  The asinh form holds where 1 + L/ab rounds to 1
    alpha = min(pole * (1.0 - 1.0 / _TRAPEZOID_LN_STRIP), 0.5 * _TRAPEZOID_LN_STRIP)
    sh2 = 2.0 * math.sinh(0.5 * alpha) ** 2  # cosh alpha - 1
    if x * sh2 > _TRAPEZOID_LN_STRIP:
        sh2 = _TRAPEZOID_LN_STRIP / x
        alpha = 2.0 * math.asinh(math.sqrt(0.5 * sh2))
    # S_lo, under S; S below the least normal double is not asked for relative accuracy
    t = math.sqrt(zeta / (w * w) + 0.5 * x)
    s_lo = (1.0 + zeta) * math.erf(math.pi * t) / (4.0 * _SQRT_PI * w * t) if t > 0.0 else 0.5
    if complement:
        s_lo = max(
            zeta * x / ((1.0 + math.sqrt(1.0 + x * x)) * math.sqrt(1.0 + 2.0 * math.pi * x)),
            s_lo - 0.5 / math.sqrt(1.0 + 2.0 * x),
            _MIN_NORMAL,
        )
    else:
        s_lo += 0.5 / math.sqrt(1.0 + 2.0 * math.pi * x)
    # ln(M/S_lo), with (1 - zeta e^-alpha)(1 - zeta e^alpha) = w^2 - 2 zeta (cosh alpha - 1)
    numerator = zeta * (1.0 + sh2 + zeta) if complement else 1.0 + zeta * (1.0 + sh2)
    ln_m = math.log(numerator / ((w * w - 2.0 * zeta * sh2) * s_lo)) + x * sh2
    dual = complement and x <= 0.5 * _TRAPEZOID_CUT  # 2ab <= CUT
    if dual:  # the expm1 weight's M
        ln_m1 = ln_m + math.log(min(1.0 + math.exp(-x * sh2), x * (2.0 + sh2)))
    n = max(1, math.ceil((_TRAPEZOID_LN_STRIP + (max(ln_m, ln_m1) if dual else ln_m)) / (2.0 * alpha)))
    # the share of [0, pi] where 2ab sin^2(phi/2) <= _TRAPEZOID_CUT; past it
    # each term is at most tail = (P_c + 1)/2 e^-CUT, and 2ab sin^2(phi/2)
    # grows at least at the rate ab sin(phi_c) up to pi/2
    share, tail, rate = 1.0, 0.0, 0.0
    if x > 0.5 * _TRAPEZOID_CUT:
        s_c = math.sqrt(0.5 * _TRAPEZOID_CUT / x)  # sin(phi_c/2)
        share = 2.0 * math.asin(s_c) / math.pi
        tail = 0.5 * (w * (1.0 + zeta) / (w * w + 4.0 * zeta * s_c * s_c) + 1.0) * math.exp(-_TRAPEZOID_CUT)
        rate = 2.0 * math.pi * s_c * math.sqrt(1.0 - s_c * s_c) * x  # pi ab sin(phi_c); x last, so finite
    last = min(n, int(n * share))
    if last >= _TRAPEZOID_MAX_NODES:
        raise ConvergenceError(
            f"the trapezoid needs {last + 1:.3g} nodes at (a={_brief(a)}, b={_brief(b)}), "
            f"over the cap of {_TRAPEZOID_MAX_NODES}"
        )
    # the N-panel endpoint rule's terms at nodes 0..last, the end ones halved: f
    # with the weight exp, and where dual f1 with expm1, from one pass over the nodes
    coeffs = (p, q, w * w, 4.0 * zeta, x)
    kernel = math.exp
    ks, h = range(last + 1), math.pi / n
    f, f1 = _simon_terms_dual(ks, h, *coeffs) if dual else (_simon_terms(ks, h, *coeffs, kernel), None)
    for terms in (f, f1) if dual else (f,):
        terms[0] *= 0.5
        if last == n:
            terms[n] *= 0.5
    # b < a terms change sign past v = w/2, and only then is sum |f_k| not sum f_k
    signed = complement and x * w < _TRAPEZOID_CUT
    s, error, rest = _trapezoid_sum(f, n, _left_out(n, last, x, tail, rate), signed, s_lo, ln_m, alpha)
    if dual:  # the same nodes with the weight less 1; the smaller bound is kept
        s1, error1, rest1 = _trapezoid_sum(f1, n, 0.0, signed, s_lo, ln_m1, alpha)
        if error1 < error:
            kernel, f, s, rest, error, ln_m = math.expm1, f1, s1, rest1, error1, ln_m1
    tol = _TRAPEZOID_TOL
    if error > tol * (abs(s) - error) and rest <= tol * (abs(s) - rest):
        # only the strip term misses: doubling N squares it, and reuses every node
        last2 = min(2 * n, int(2 * n * share))
        if last2 < _TRAPEZOID_MAX_NODES:
            f += _simon_terms(range(1, last2 + 1, 2), 0.5 * math.pi / n, *coeffs, kernel)
            n, last = 2 * n, last2
            s, error, rest = _trapezoid_sum(f, n, _left_out(n, last, x, tail, rate), signed, s_lo, ln_m, alpha)
    scale = math.exp(-r)
    return _new_record(TrapezoidResult, (s * scale, d, complement, len(f), error * scale))


def _trapezoid_sum(
    f: list[float], n: int, left_out: float, signed: bool, s_lo: float, ln_m: float, alpha: float
) -> tuple[float, float, float]:
    """T_N from its terms f, its bound, and the bound less the strip term.

    The strip term is Trefethen & Weideman's 2M/(e^(2 alpha N) - 1), M =
    s_lo e^ln_m.  The rest is left_out/N, for the terms of the nodes left out,
    plus the rounding: _TRAPEZOID_ULPS ulps of each term (sum |f_k| is
    sum f_k unless ``signed``), and an ulp of T_N.
    """
    s = math.fsum(f) / n
    absum = sum(map(abs, f)) / n if signed else s
    rest = left_out / n + _EPSILON * (_TRAPEZOID_ULPS * absum + abs(s))
    return s, rest + 2.0 * s_lo * math.exp(ln_m - 2.0 * alpha * n) / -math.expm1(-2.0 * alpha * n), rest


def _left_out(n: int, last: int, x: float, tail: float, rate: float) -> float:
    """A bound on the sum of the terms past node ``last`` of the N-panel rule.

    Each is at most ``tail``.  Where ab > _TRAPEZOID_CUT the cut phi_c is
    below pi/2, where 2ab sin^2(phi/2) is convex: node last + j is then
    under tail e^(-(j - 1) rate/N) up to pi/2, and under tail e^(CUT - ab)
    past it, at most N/2 + 1 nodes.  Otherwise there are N - last nodes.
    """
    if x > _TRAPEZOID_CUT:
        return tail * (-1.0 / math.expm1(-rate / n) + (0.5 * n + 1.0) * math.exp(_TRAPEZOID_CUT - x))
    return tail * (n - last)


def q1_bessel_series(args: QArgs) -> TrapezoidResult:
    """Q1 (b >= a), or 1 - Q1 (b < a), by Marcum's Bessel series, relative to its size.

    The generating function sum_k t^k I_k(x) = e^((x/2)(t + 1/t)) at
    t = a/b and x = ab gives, with d = (b - a)^2/2 and i_k = e^-x I_k(x),

        Q1     = e^-d sum_{k>=0} zeta^k i_k,   zeta = a/b   (b >= a),
        1 - Q1 = e^-d sum_{k>=1} zeta^k i_k,   zeta = b/a   (b < a),

    sums of positive terms (Marcum's series, as used by Shnidman, IEEE
    Trans. Inf. Theory 35(2), 1989).  Since i_k/i_(k-1) ~ e^-asinh(k/x),
    the terms fall below e^-39.2 (1e-17) of i_0 past the first K with
    sum_(j<=K) (ln(1/zeta) + asinh(j/x)) >= 39.2, and the sum stops at
    K.  The ratios r_k = i_k/i_(k-1) come, where K^2 <= x, from the
    forward recurrence r_1 = i1e(x)/i0e(x), r_(k+1) = 1/r_k - 2k/x (the
    three-term recurrence of I_k), whose errors grow by at most
    e^(K^2/x) <= e over the K steps (Gautschi, SIAM Rev. 9, 1967).
    Elsewhere they come from the backward recurrence
    r_k = x/(2k + x r_(k+1)) started at r_(N+1) = 0 with
    N = floor(sqrt(K^2 + 40x)) + 16; an error in a start contracts by
    r_k^2 per step, e^-40 over the steps down to K (Amos, Math. Comp. 28,
    1974).  Forward, the terms are i0e(x) times the ratios multiplied up,
    summed by fsum.  Backward, the sum over i_0 is taken during the
    recurrence, in Horner form from k = K down to 1,

        h <- zeta r_k (1 + h),   Q1 = e^-d i_0 (1 + h),   1 - Q1 = e^-d i_0 h,

    and nothing is stored.  Each step rounds three times, on positive
    numbers, and an error made at step k reaches h scaled by the factors
    h_j/(1 + h_j) < 1 it passes, while the multiplied-up term k carries k
    roundings; against fsum of those terms the Horner sum is within
    1e-15 relative (tested at 300 seeded points).  The product zeta^K
    r_1 ... r_K, kept alongside, gives the K-th term.  It shares no code
    with ``q1_trapezoid`` except the exponent, the same double d, with
    its rounding carried in ``scaled``.  ``nodes`` is the number of
    terms, and ``error`` bounds the discarded terms by a geometric series.

    The time is O(K) forward and O(N) backward, the memory O(K) forward,
    where K <= sqrt(ab), and O(1) backward.  It refuses a point needing
    over _BESSEL_MAX_STEPS recurrence steps with DomainError, in O(1)
    where a lower bound on K already needs them.  Off b = a
    below a = 100 it takes at most about 1,000 steps, backward at
    (99.99, 101).
    """
    a, b = args
    complement = b < a
    lo, hi = (b, a) if complement else (a, b)
    d, r = _split_exponent(lo, hi)
    x = a * b
    if x == 0.0:  # i_k(0) = 0 for k >= 1: the sum is i_0 = 1, or empty
        total, terms = (0.0, 0) if complement else (math.exp(-r), 1)
        return _new_record(TrapezoidResult, (total, d, complement, terms, 0.0))
    zeta = lo / hi
    step, k, depth, cap = math.log(hi / lo), 0, 0.0, _BESSEL_MAX_STEPS  # ln(1/zeta)
    # n < sqrt(41) K + 16, so a point is refused only where K > (cap - 16)/sqrt(41),
    # and so, as each term adds at least ln(1/zeta), where ln(1/zeta) < 7 _BESSEL_DEPTH/cap.
    # There K is at least the least k with k ln(1/zeta) + k(k + 1)/(2x) >= _BESSEL_DEPTH
    # (asinh t <= t), less a step for rounding; where the steps that k needs pass the
    # cap, the walk starts past it and the point is refused at once
    if step * cap < 7.0 * _BESSEL_DEPTH:
        c = 0.5 / x
        k = math.ceil(2.0 * _BESSEL_DEPTH / (step + c + math.sqrt((step + c) * (step + c) + 4.0 * c * _BESSEL_DEPTH))) - 1
        k = 0 if k <= cap and (k * k <= x or math.isqrt(k * k + int(40.0 * x)) + 16 <= cap) else cap + 1
    while depth < _BESSEL_DEPTH and k <= cap:
        k += 1
        depth += step + math.asinh(k / x)
    forward = k * k <= x
    n = k if forward else math.isqrt(k * k + int(40.0 * x)) + 16
    if n > cap:
        raise DomainError(f"the Bessel series needs over {cap} recurrence steps at (a={_brief(a)}, b={_brief(b)})")
    t = bessel_i0_scaled(x)
    if forward:
        ratio = bessel_i1_scaled(x) / t
        ratios = [ratio]  # r_1, ..., r_(K+1)
        for two_j in range(2, 2 * k + 1, 2):
            ratio = 1.0 / ratio - two_j / x
            ratios.append(ratio)
        past = ratios.pop()  # r_(K+1)
        if not complement:
            ratios.append(t)  # i_0
        for j in range(k):  # each ratio becomes the term it multiplies up to
            t *= zeta * ratios[j]
            ratios[j] = t
        total = math.fsum(ratios)
    else:
        past = 0.0
        for two_j in range(2 * n, 2 * k, -2):
            past = x / (two_j + x * past)
        # the sum over i_0 in Horner form, h = zeta r_1 (1 + zeta r_2 (1 + ...)),
        # and the product zeta^K r_1 ... r_K, from r_K down to r_1
        ratio, h, product = past, 0.0, 1.0
        for two_j in range(2 * k, 0, -2):
            ratio = x / (two_j + x * ratio)
            zr = zeta * ratio
            h = zr * (1.0 + h)
            product *= zr
        total = t * (h if complement else 1.0 + h)
        t *= product  # the K-th term
    # the ratios fall with k, so the terms past K are at most t (zeta r_(K+1))^j
    q = zeta * past
    terms = k if complement else k + 1
    return _new_record(TrapezoidResult, (total * math.exp(-r), d, complement, terms, t * q / (1.0 - q)))


# --- generated by tests/make_gauss_legendre.py: do not edit by hand ---
# the 10-point Gauss-Legendre rule on [-1, 1]: (node, weight) for each
# positive node; its mirror -node has the same weight
_GAUSS_LEGENDRE = (
    (0.14887433898163122, 0.29552422471475287),
    (0.4333953941292472, 0.26926671930999635),
    (0.6794095682990244, 0.21908636251598204),
    (0.8650633666889845, 0.1494513491505806),
    (0.9739065285171717, 0.06667134430868814),
)
# --- end of generated block ---


def q1_diagonal(args: QArgs) -> float:
    """Q1 near b = a: the exact diagonal minus a fixed Gauss-Legendre integral.

        Q1(a, b) = (1 + i0e(a^2))/2 - int_a^b R(x) dx,   |b - a| <= 1,

    where Q1(a, a) = (1 + e^-a^2 I0(a^2))/2 is exact.  The integral is
    written in the offset t = x - a,

        int_0^(b-a) (a + t) e^(-t^2/2) i0e(a (a + t)) dt,

    and taken by the 10-point rule above.  The Gaussian factor sees each
    node t itself, not x - a after x = a + t is rounded to a double:
    that rounding would put an error of up to ulp(a)/2 into t, growing
    with a.  The other factors change by a relative ulp at most.  At
    b = a the rule is skipped and the value is the closed form.  Against
    40-digit mpmath at 300 random points with a in [100, 1e6] and
    |b - a| <= 1 the absolute error is at most 1.5e-16, about one ulp of
    Q1, and at 300 with a in [1e-3, 100) and b in [a - 1, a), where
    ``q1_reference`` takes it too, at most 1.8e-16.  The error is
    absolute, not relative: near 1 it is the error of 1 - Q1, and past
    |b - a| = 1 the subtraction loses Q1's relative accuracy, so the
    method stops there.  O(1) time and memory; it shares no code with
    ``q1_asymptotic``, and only the i0e kernel with ``q1_bessel_series``.

    Raises DomainError for |b - a| > 1.
    """
    a, b = args.a, args.b
    delta = b - a
    if not abs(delta) <= _DIAGONAL_SPAN:
        raise DomainError(f"the diagonal route covers |b - a| <= {_DIAGONAL_SPAN:g}, got (a={_brief(a)}, b={_brief(b)})")
    if b == 0.0:  # Q1(a, 0) = 1 exactly
        return 1.0
    q = 0.5 * (1.0 + bessel_i0_scaled(a * a))
    if delta == 0.0:
        return q
    # nodes t = h (1 +- x) on [0, delta] (or [delta, 0]); h carries the sign
    h = 0.5 * delta
    exp = math.exp
    total = 0.0
    for x, w in _GAUSS_LEGENDRE:
        for t in (h + h * x, h - h * x):
            total += w * (a + t) * exp(-0.5 * t * t) * bessel_i0_scaled(a * (a + t))
    return q - h * total


def q1_reference(args: QArgs) -> OracleResult:
    """Cross-validated reference Q1 value.

    Picks its two methods by region:

      * the band, a <= b <= a + 1 with ab < 25: the quadrature and the
        Poisson series, and their mean;
      * everywhere else: method a is the diagonal route where
        |b - a| <= 1 and the trapezoid beyond.  For b < a the trapezoid
        gives 1 - Q1, and method a is 1 minus that, or exactly 1.0 where
        (a - b)^2/2 > 745 and 1 - Q1 underflows.  Method b is the
        large-xi expansion from ASYMPTOTIC_MIN_A on, and below it where
        ``_expansion_checks`` holds (ab >= 25, b >= a - 1,
        (b - a)^2 <= ab, (b - a)^2/2 <= 650); elsewhere it is the Bessel
        series (1 minus its 1 - Q1 for b < a).  It returns method a's
        value.

    Each method enters one check as a (scaled, exponent) pair: the
    trapezoid and the Bessel series their own where both ran
    (|b - a| > 1 off the expansion's route), for Q1 (b > a) or 1 - Q1 (b < a),
    so that the check keeps its strength where the value underflows, as
    Q1(1, 50) = 2.46e-523 and 1 - Q1(20, 1) = 1.87e-81 do; every other
    method its value and 0.0.  It raises CrossValidationError unless the
    exponents are equal and the scaled values agree to 1e-12 relative to
    method a's (of the smallest normal double where that is below it).
    The value is clamped to [0, 1].  A disagreement would indicate a
    defect, not an input problem.  ``agreement_gap`` is |qa - qb| of
    the two values everywhere.
    """
    a, b = args
    sa = sb = None  # the trapezoid's and the Bessel series' scaled values, where each ran
    if _in_band(a, b):
        method_a, qa = "quadrature", q1_quadrature(args)
        method_b, qb = "series", q1_series(args)
        value = 0.5 * (qa + qb)
    else:
        if abs(b - a) <= _DIAGONAL_SPAN:
            method_a, qa = "diagonal", q1_diagonal(args)
        elif b < a and 0.5 * (a - b) ** 2 > _EXP_UNDERFLOW:
            # 1 - Q1 <= e^-d / 2 underflows, as in q1_asymptotic
            method_a, qa = "trapezoid", 1.0
        else:
            # the fields, not the ``value`` property: the same double without its frame
            sa, ea, complement, _, _ = q1_trapezoid(args)
            qa = sa * math.exp(-ea)
            method_a, qa = "trapezoid", 1.0 - qa if complement else qa
        if a >= ASYMPTOTIC_MIN_A or _expansion_checks(a, b):
            method_b, qb = "asymptotic", q1_asymptotic(args)
        else:
            sb, eb, complement, _, _ = q1_bessel_series(args)
            qb = sb * math.exp(-eb)
            method_b, qb = "bessel_series", 1.0 - qb if complement else qb
        value = qa
    gap = abs(qa - qb)
    if sa is None or sb is None:  # any pair but the trapezoid and the Bessel series: the values
        sa, ea, sb, eb = qa, 0.0, qb, 0.0
    if not (ea == eb and abs(sa - sb) <= _RELATIVE_GATE * max(sa, _MIN_NORMAL)):
        raise CrossValidationError(
            f"reference methods disagree at (a={_brief(a)}, b={_brief(b)}): "
            f"{method_a}={sa!r}*e^-{ea!r}, {method_b}={sb!r}*e^-{eb!r}"
        )
    # min(1.0, max(0.0, value)) as two comparisons: the same double, NaN and -0.0 giving 0.0
    return _new_record(OracleResult, ((value if value < 1.0 else 1.0) if value > 0.0 else 0.0, qa, qb, gap, method_b))
