"""Overflow-free elementary special functions, and Dekker's error-free products.

The exponentially scaled modified Bessel functions i0e(x) = e^-x I0(x)
and i1e(x) = e^-x I1(x) and log I0(x), and a cancellation-safe
difference erfc(x) - erfc(y).  Every value is finite for every accepted
argument; there is no plain I0/I1 (e^x times the scaled value, which
overflows a double past x ~ 713.9), and erf/erfc come from ``math``
directly.  Every kernel is fixed-cost: none has a loop whose length
depends on its argument.

Bessel evaluation: i0e and i1e each evaluate one of four fixed-degree
polynomials in straight-line Horner form, picked by x:

  * x <= 8: I0(x) = 1 + y P(y) and I1(x) = (x/2) (1 + y Q(y)) with
    y = x^2/4, times e^-x.  So i0e(0) = 1 and i1e(0) = 0 exactly, and
    I0(x) - 1 carries no cancellation (``log_bessel_i0`` uses it);
  * 8 < x <= 16 and 16 < x < 1000: Chebyshev interpolants of
    sqrt(x) e^-x I_nu(x) in an affine map of 1/x;
  * x >= 1000: the Hankel sum of e^-x I_nu(x) to 1/x^5, as in Gil,
    Segura & Temme, ACM TOMS 40(3), 2014.

There, i0e - i1e ~ 1/(2x sqrt(2 pi x)) cancels in the subtraction: it
is 5% off at x = 1e15 and 0.0 from x ~ 1e16.  A private kernel takes it
from the difference of the two Hankel sums instead, coefficient by
coefficient, so it keeps full relative accuracy while the difference
is a normal double, up to x ~ 4e204.

The coefficients are generated with mpmath by tests/make_bessel_coeffs.py
(the block between its markers below).  The largest relative error
against 50-digit mpmath values is about 6e-16 on [0, 1e9].

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math

from .errors import DomainError, _brief

# log(DBL_MAX); exp(t) overflows for t above this
_LOG_DBL_MAX = 709.782712893384
# the argument guards take finite x >= 0 as 0.0 <= x <= _DBL_MAX, which
# also refuses NaN and an int past the double range, without a call
_DBL_MAX = 1.7976931348623157e308
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split of x is c - (c - x) and its rest, c = _SPLITTER * x


# --- generated by tests/make_bessel_coeffs.py: do not edit by hand ---
BESSEL_SMALL_X = 8.0
# from here up the kernels are Hankel sums
_HANKEL_X = 1000.0


def _i0m1_small(x: float) -> float:
    """I0(x) - 1 for 0 <= x <= 8, as y P(y) with y = x^2/4."""
    y = 0.25 * x * x
    return y * (1.0
        + y * (0.24999999999999978
        + y * (0.02777777777777875
        + y * (0.0017361111111093212
        + y * (6.944444444616768e-05
        + y * (1.9290123446808463e-06
        + y * (3.936759926835679e-08
        + y * (6.151186352073215e-10
        + y * (7.594076203674035e-12
        + y * (7.593826261486644e-14
        + y * (6.2782596125899935e-16
        + y * (4.3438583592285594e-18
        + y * (2.6459481729049967e-20
        + y * (1.1142728859197163e-22
        + y * 9.319037302519698e-25))))))))))))))


def _i1_small(x: float) -> float:
    """I1(x) for 0 <= x <= 8, as (x/2) (1 + y Q(y)) with y = x^2/4."""
    y = 0.25 * x * x
    return 0.5 * x * (1.0 + y * (0.5
        + y * (0.08333333333333331
        + y * (0.0069444444444445004
        + y * (0.0003472222222221193
        + y * (1.1574074074173187e-05
        + y * (2.7557319218244207e-07
        + y * (4.9209498831124465e-09
        + y * (6.834652024432265e-11
        + y * (7.594068659611249e-13
        + y * (6.903555797446423e-15
        + y * (5.231322675888681e-17
        + y * (3.3442300506385306e-19
        + y * (1.880771354951542e-21
        + y * (7.606752944827284e-24
        + y * 5.669579277854459e-26)))))))))))))))


def _i0e_large(x: float) -> float:
    """e^-x I0(x) for x > 8, from fits of sqrt(x) e^-x I0(x)."""
    if x <= 16.0:
        s = 32.0 / x - 3.0
        p = (0.4038923361468227
            + s * (0.0017529912275184858
            + s * (3.891150885367761e-05
            + s * (1.899382571717517e-06
            + s * (1.751654133819233e-07
            + s * (2.6439051750225822e-08
            + s * (3.5093955113755525e-09
            + s * (-5.560821303019839e-10
            + s * (-4.640612281528446e-10
            + s * (-4.34232832048719e-11
            + s * (3.646145225599437e-11
            + s * (5.4716617440380314e-12
            + s * (-3.3440985350408383e-12
            + s * (-3.153001318717834e-13
            + s * 2.5958979735025443e-13))))))))))))))
    elif x < 1000.0:
        s = 32.520325203252035 / x - 1.032520325203252
        p = (0.4005548432089593
            + s * (0.001591115800736088
            + s * (2.944238175562129e-05
            + s * (1.0464804180228862e-06
            + s * (5.684228019269998e-08
            + s * (4.255900794039752e-09
            + s * (4.1472813641621137e-10
            + s * (5.0807901068213236e-11
            + s * (7.643768979991034e-12
            + s * (1.3287245800509765e-12
            + s * (2.826685495037492e-13
            + s * (1.244107140435064e-13
            + s * 4.2481565547833513e-14))))))))))))
    else:
        s = 1.0 / x
        p = (0.3989422804014327
            + s * (0.04986778505017909
            + s * (0.028050629090725736
            + s * (0.029219405302839306
            + s * (0.04474221436997269
            + s * 0.09060298409919469)))))
    return p / math.sqrt(x)


def _i1e_large(x: float) -> float:
    """e^-x I1(x) for x > 8, from fits of sqrt(x) e^-x I1(x)."""
    if x <= 16.0:
        s = 32.0 / x - 3.0
        p = (0.38446685410720083
            + s * (-0.004990571567455471
            + s * (-6.1278351778676e-05
            + s * (-2.49507640116517e-06
            + s * (-2.093444132319863e-07
            + s * (-3.014164737287391e-08
            + s * (-4.052582760484623e-09
            + s * (5.312377994846011e-10
            + s * (4.939598313973053e-10
            + s * (5.229003455365202e-11
            + s * (-3.752601693224544e-11
            + s * (-6.24991056123452e-12
            + s * (3.4189196945347765e-12
            + s * (3.6562001917571385e-13
            + s * -2.6700718323251184e-13))))))))))))))
    elif x < 1000.0:
        s = 32.520325203252035 / x - 1.032520325203252
        p = (0.39414387428693964
            + s * (-0.004695640121241645
            + s * (-4.825733364322963e-05
            + s * (-1.4403238109587724e-06
            + s * (-7.182308326630745e-08
            + s * (-5.110017824470259e-09
            + s * (-4.812935395836058e-10
            + s * (-5.7536992844513566e-11
            + s * (-8.497477122598564e-12
            + s * (-1.4582598231040485e-12
            + s * (-3.0655023718540997e-13
            + s * (-1.3257560002831204e-13
            + s * -4.4993522259349745e-14))))))))))))
    else:
        s = 1.0 / x
        p = (0.3989422804014327
            + s * (-0.14960335515053724
            + s * (-0.046751048484542895
            + s * (-0.04090716742397503
            + s * (-0.05752570418996489
            + s * -0.1107369805656824)))))
    return p / math.sqrt(x)


def _i0e_minus_i1e_hankel(x: float) -> float:
    """e^-x (I0(x) - I1(x)) for x >= 1000, from the difference of the two Hankel sums."""
    s = 1.0 / x
    p = s * (0.19947114020071635
        + s * (0.07480167757526862
        + s * (0.07012657272681434
        + s * (0.10226791855993758
        + s * (0.2013399646648771
        + s * 0.49831641254557085)))))
    return p / math.sqrt(x)


# --- end of generated block ---


def bessel_i0_scaled(x: float) -> float:
    """e^-x I0(x) for x >= 0; monotone decreasing from 1 toward 0."""
    if not 0.0 <= x <= _DBL_MAX:
        raise DomainError(f"bessel_i0_scaled requires finite x >= 0, got {_brief(x)}")
    if x <= BESSEL_SMALL_X:
        return (1.0 + _i0m1_small(x)) * math.exp(-x)
    return _i0e_large(x)


def bessel_i1_scaled(x: float) -> float:
    """e^-x I1(x) for x >= 0."""
    if not 0.0 <= x <= _DBL_MAX:
        raise DomainError(f"bessel_i1_scaled requires finite x >= 0, got {_brief(x)}")
    if x <= BESSEL_SMALL_X:
        return _i1_small(x) * math.exp(-x)
    return _i1e_large(x)


def _i0e(x: float) -> float:
    """``bessel_i0_scaled(x)`` for 0 <= x <= DBL_MAX, unchecked, for loops
    over a grid that is validated already."""
    if x <= BESSEL_SMALL_X:
        return (1.0 + _i0m1_small(x)) * math.exp(-x)
    return _i0e_large(x)


def _i0e_i1e(x: float) -> tuple[float, float]:
    """(``bessel_i0_scaled(x)``, ``bessel_i1_scaled(x)``) with one e^-x.

    The same two doubles the public functions give; takes 0 <= x <=
    DBL_MAX unchecked.
    """
    if x <= BESSEL_SMALL_X:
        e = math.exp(-x)
        return (1.0 + _i0m1_small(x)) * e, _i1_small(x) * e
    return _i0e_large(x), _i1e_large(x)


def _i0e_and_log_i0(x: float) -> tuple[float, float]:
    """(``bessel_i0_scaled(x)``, ``log_bessel_i0(x)``) from one polynomial.

    The log is log1p(I0 - 1) on the small-x piece, so it keeps its digits
    as x -> 0 where log I0(x) ~ x^2/4, and x + log i0e(x) beyond, which no
    longer cancels there and never overflows.  The first value is the
    double ``bessel_i0_scaled`` gives.  Takes 0 <= x <= DBL_MAX unchecked.
    """
    if x <= BESSEL_SMALL_X:
        p = _i0m1_small(x)
        return (1.0 + p) * math.exp(-x), math.log1p(p)
    i0e = _i0e_large(x)
    return i0e, x + math.log(i0e)


def log_bessel_i0(x: float) -> float:
    """log I0(x) for x >= 0, accurate relative to its size (see ``_i0e_and_log_i0``)."""
    if not 0.0 <= x <= _DBL_MAX:
        raise DomainError(f"log_bessel_i0 requires finite x >= 0, got {_brief(x)}")
    return _i0e_and_log_i0(x)[1]


def _erfc_diff_midpoint(m: float, delta: float) -> float:
    """erfc(m - delta/2) - erfc(m + delta/2) by the midpoint rule of
    erfc_diff; used only where delta (1 + |m|) < 1e-4."""
    mm = m * m
    if mm > _LOG_DBL_MAX:
        return 0.0
    body = delta * math.exp(-mm) * (1.0 + delta * delta * (4.0 * mm - 2.0) / 24.0)
    d = 2.0 / math.sqrt(math.pi) * body
    # max(0.0, d) as one comparison: the same double, NaN and -0.0 giving 0.0
    return d if d > 0.0 else 0.0


def erfc_diff(x: float, y: float) -> float:
    """erfc(x) - erfc(y) for x <= y, safe against cancellation.

    Two evaluation regions:
      * nearly equal arguments, (y-x) (1 + |m|) < 1e-4: midpoint rule for
        the underlying Gaussian integral, (y-x) e^(-m^2) (1 + (y-x)^2
        (4m^2 - 2)/24) at the midpoint m, accurate to O(((y-x) m)^4);
      * otherwise plain subtraction.  libm's erfc is accurate to about
        1 ulp relative until it underflows near x = 26.5, so the
        difference loses only what the subtraction cancels, a factor of
        erfc(x) / (erfc(x) - erfc(y)).  For x >= 0, erfc(y)/erfc(x) <=
        e^(-(y-x)(x+y)), so the factor is at most 1/(1 - e^(-(y-x)(x+y)));
        past x = 5 the midpoint cut keeps it below 6e3, and it falls to
        about 1 once (y-x)(x+y) exceeds a few units.

    The result is clamped at 0 so rounding can never make it negative.
    An int past the double range is refused with DomainError.
    """
    # one comparison refuses both NaN and x > y; only then is it told which
    if not x <= y:
        if x != x or y != y:  # NaN; math.isnan would raise on a huge int
            raise DomainError("erfc_diff requires finite arguments")
        raise DomainError(f"erfc_diff requires x <= y, got x={_brief(x)} > y={_brief(y)}")
    try:
        delta = y - x
        m = 0.5 * (x + y)
    except OverflowError:  # only an int converts to float, and raises, here
        if abs(x) <= _DBL_MAX >= abs(y):  # two ints whose sum a double cannot hold
            return erfc_diff(float(x), float(y))
        raise DomainError(
            f"erfc_diff requires arguments in the double range, got x={_brief(x)}, y={_brief(y)}"
        ) from None
    if delta * (1.0 + abs(m)) < 1e-4:
        return _erfc_diff_midpoint(m, delta)
    d = math.erfc(x) - math.erfc(y)
    return d if d > 0.0 else 0.0


def erfc_diff_centered(m: float, delta: float) -> float:
    """erfc(m - delta/2) - erfc(m + delta/2) with the width given exactly.

    Equivalent to erfc_diff(m - delta/2, m + delta/2), but when delta is
    far below ulp(m) the explicit width preserves full relative accuracy
    where reconstructing it from the two rounded endpoints could not.
    An int past the double range is refused with DomainError.
    """
    # as in erfc_diff; m == m fails only for NaN
    if not (delta >= 0.0 and m == m):
        if m != m or delta != delta:
            raise DomainError("erfc_diff_centered requires finite arguments")
        raise DomainError(f"width must be nonnegative, got {_brief(delta)}")
    try:
        width = delta * (1.0 + abs(m))
    except OverflowError:  # only an int past the double range converts and raises here
        raise DomainError(
            "erfc_diff_centered requires arguments in the double range, "
            f"got m={_brief(m)}, delta={_brief(delta)}"
        ) from None
    if width < 1e-4:
        return _erfc_diff_midpoint(m, delta)
    return erfc_diff(m - 0.5 * delta, m + 0.5 * delta)


def _two_prod(x: float, y: float) -> tuple[float, float]:
    """(p, e): the double p = x * y and e = x y - p (Dekker's product), exact
    unless a step overflows (|x| or |y| past about 1.3e300) or e underflows."""
    p = x * y
    c, d = _SPLITTER * x, _SPLITTER * y
    x_hi, y_hi = c - (c - x), d - (d - y)
    x_lo, y_lo = x - x_hi, y - y_hi
    return p, (((x_hi * y_hi - p) + x_hi * y_lo) + x_lo * y_hi) + x_lo * y_lo


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
    delta_lo = (hi - delta) - lo  # Fast2Sum, exact as hi >= lo
    c = _SPLITTER * delta
    d_hi = c - (c - delta)
    d_lo = delta - d_hi
    sq_lo = ((d_hi * d_hi - sq) + 2.0 * d_hi * d_lo) + d_lo * d_lo
    return 0.5 * sq, 0.5 * (sq_lo + delta_lo * (2.0 * delta + delta_lo))
