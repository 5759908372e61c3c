"""Overflow-safe elementary special functions.

Modified Bessel functions I0/I1 in plain and exponentially scaled form
(i0e(x) = e^-x I0(x)), the error functions erf/erfc, the scaled
complement erfcx(x) = e^(x^2) erfc(x), and a cancellation-safe
difference erfc(x) - erfc(y).

Bessel evaluation strategy: ascending power series for |x| <= 15,
asymptotic expansion of the scaled function beyond.  The two branches
agree to better than 1e-13 at the seam.  Plain I0/I1 overflow a double
past x ~ 713.9 (where x + log i0e(x) exceeds log DBL_MAX); callers in
that range must use the scaled variants.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math

from .errors import DomainError, OverflowDomainError

SERIES_CUTOFF = 15.0
# log(DBL_MAX); exp(t) overflows for t above this
_LOG_DBL_MAX = 709.782712893384
# erfcx(x) = 2 exp(x^2) - erfcx(-x) overflows below this
ERFCX_NEG_LIMIT = -26.64


def _i0_series(x: float) -> float:
    """Ascending series sum_k (x^2/4)^k / (k!)^2, for |x| <= 15."""
    t = x * x / 4.0
    term = total = 1.0
    k = 0
    while True:
        k += 1
        term *= t / (k * k)
        total += term
        if term <= 1e-17 * total:
            return total


def _i1_series(x: float) -> float:
    """Ascending series sum_k (x/2)^(2k+1) / (k! (k+1)!), for |x| <= 15."""
    if x == 0.0:
        return 0.0
    h = x / 2.0
    t = h * h
    term = total = h
    k = 0
    while True:
        k += 1
        term *= t / (k * (k + 1))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total


def _ive_asym(nu: int, x: float) -> float:
    """Asymptotic expansion of e^-x I_nu(x) for large x.

    e^-x I_nu(x) ~ (2 pi x)^(-1/2) sum_k c_k / x^k with
    c_k = c_{k-1} ((2k-1)^2 - 4 nu^2) / (8k).  Terms are added while
    they keep shrinking; the first omitted term bounds the error.
    """
    mu = 4 * nu * nu
    c = total = 1.0
    prev = math.inf
    xk = 1.0
    for k in range(1, 60):
        c *= ((2 * k - 1) ** 2 - mu) / (8 * k)
        xk *= x
        term = c / xk
        if abs(term) > prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < 1e-18 * abs(total):
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i0_scaled(x: float) -> float:
    """e^-x I0(x) for x >= 0; monotone decreasing from 1 toward 0."""
    if not (x >= 0.0) or math.isinf(x):
        raise DomainError(f"bessel_i0_scaled requires finite x >= 0, got {x!r}")
    if x <= SERIES_CUTOFF:
        return _i0_series(x) * math.exp(-x)
    return _ive_asym(0, x)


def bessel_i1_scaled(x: float) -> float:
    """e^-x I1(x) for x >= 0."""
    if not (x >= 0.0) or math.isinf(x):
        raise DomainError(f"bessel_i1_scaled requires finite x >= 0, got {x!r}")
    if x <= SERIES_CUTOFF:
        return _i1_series(x) * math.exp(-x)
    return _ive_asym(1, x)


def _plain_from_scaled(x: float, scaled: float, name: str) -> float:
    if x <= _LOG_DBL_MAX:
        return math.exp(x) * scaled
    t = x + math.log(scaled)
    if t >= _LOG_DBL_MAX:
        raise OverflowDomainError(
            f"{name}({x:g}) exceeds double range; use the scaled variant"
        )
    return math.exp(t)


def bessel_i0(x: float) -> float:
    """Modified Bessel function I0(x); even in x.

    Raises OverflowDomainError once the value exceeds double range
    (|x| ~ 713.9).
    """
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"bessel_i0 requires finite x, got {x!r}")
    ax = abs(x)
    if ax <= SERIES_CUTOFF:
        return _i0_series(ax)
    return _plain_from_scaled(ax, _ive_asym(0, ax), "bessel_i0")


def bessel_i1(x: float) -> float:
    """Modified Bessel function I1(x); odd in x."""
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"bessel_i1 requires finite x, got {x!r}")
    ax = abs(x)
    if ax <= SERIES_CUTOFF:
        v = _i1_series(ax)
    else:
        v = _plain_from_scaled(ax, _ive_asym(1, ax), "bessel_i1")
    return -v if x < 0.0 else v


def erf(x: float) -> float:
    """Error function; odd, erf(x) = 1 - erfc(x)."""
    return math.erf(x)


def erfc(x: float) -> float:
    """Complementary error function, accurate to a few ulp on all of R."""
    return math.erfc(x)


def _erfcx_cf(x: float) -> float:
    """Laplace continued fraction for erfcx, x >= 4 (modified Lentz)."""
    tiny = 1e-300
    f = c = x
    d = 0.0
    for n in range(1, 200):
        an = 0.5 * n
        d = x + an * d
        c = x + an / c
        if d == 0.0:
            d = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return 1.0 / (math.sqrt(math.pi) * f)


def erfcx(x: float) -> float:
    """Scaled complement e^(x^2) erfc(x); strictly decreasing, erfcx(0) = 1.

    Overflows for x below ERFCX_NEG_LIMIT (~ -26.64) where 2 e^(x^2)
    exceeds double range.
    """
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"erfcx requires finite x, got {x!r}")
    if x >= 4.0:
        return _erfcx_cf(x)
    if x >= 0.0:
        return math.exp(x * x) * math.erfc(x)
    if x < ERFCX_NEG_LIMIT:
        raise OverflowDomainError(
            f"erfcx({x:g}) exceeds double range (threshold {ERFCX_NEG_LIMIT})"
        )
    return 2.0 * math.exp(x * x) - erfcx(-x)


def _erfc_diff_midpoint(m: float, delta: float) -> float:
    """erfc(m - delta/2) - erfc(m + delta/2) by the midpoint rule of
    erfc_diff; used only where delta (1 + |m|) < 1e-4."""
    mm = m * m
    if mm > _LOG_DBL_MAX:
        return 0.0
    body = delta * math.exp(-mm) * (1.0 + delta * delta * (4.0 * mm - 2.0) / 24.0)
    return max(0.0, 2.0 / math.sqrt(math.pi) * body)


def erfc_diff(x: float, y: float) -> float:
    """erfc(x) - erfc(y) for x <= y, safe against cancellation.

    Three evaluation regions:
      * nearly equal arguments: midpoint rule for the underlying Gaussian
        integral, (y-x) e^(-m^2) (1 + (y-x)^2 (4m^2 - 2)/24) at the
        midpoint m, accurate to O(((y-x) m)^4);
      * both arguments above 5 (values tiny, naive subtraction fatal):
        factored scaled form e^(-x^2) [erfcx(x) - e^(-(y-x)(y+x)) erfcx(y)];
      * otherwise plain subtraction, which loses at most a few digits.

    The result is clamped at 0 so rounding can never make it negative.
    """
    if math.isnan(x) or math.isnan(y):
        raise DomainError("erfc_diff requires finite arguments")
    if x > y:
        raise DomainError(f"erfc_diff requires x <= y, got x={x!r} > y={y!r}")
    if x == y:
        return 0.0
    delta = y - x
    m = 0.5 * (x + y)
    if delta * (1.0 + abs(m)) < 1e-4:
        return _erfc_diff_midpoint(m, delta)
    if x > 5.0:
        # exponent difference via the product form: x^2 - y^2 = -delta (x + y)
        damped = math.exp(-delta * (x + y)) * erfcx(y)
        xx = x * x
        if xx > _LOG_DBL_MAX:
            return 0.0
        return max(0.0, math.exp(-xx) * (erfcx(x) - damped))
    return max(0.0, math.erfc(x) - math.erfc(y))


def erfc_diff_centered(m: float, delta: float) -> float:
    """erfc(m - delta/2) - erfc(m + delta/2) with the width given exactly.

    Equivalent to erfc_diff(m - delta/2, m + delta/2), but when delta is
    far below ulp(m) the explicit width preserves full relative accuracy
    where reconstructing it from the two rounded endpoints could not.
    """
    if math.isnan(m) or math.isnan(delta):
        raise DomainError("erfc_diff_centered requires finite arguments")
    if delta < 0.0:
        raise DomainError(f"width must be nonnegative, got {delta!r}")
    if delta == 0.0:
        return 0.0
    if delta * (1.0 + abs(m)) < 1e-4:
        return _erfc_diff_midpoint(m, delta)
    return erfc_diff(m - 0.5 * delta, m + 0.5 * delta)
