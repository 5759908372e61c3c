"""Unit and property tests for the scaled special functions.

Plain I0/I1 values are formed as e^x times the scaled kernels, the
product ``analysis.g_plain`` uses; erf/erfc are ``math``'s, on whose
deep-tail accuracy the bounds rely.  Frozen expected values were
computed with mpmath at 50 digits and pasted in full double precision
(the Bessel table in frozen_bessel.py is printed by
make_bessel_coeffs.py); scipy serves as a second, independent
implementation in the cross-check tests.
"""

import math
import pathlib
import random
import re
from fractions import Fraction

import mpmath as mp
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_bessel
from frozen_bessel import BESSEL_FROZEN
from make_bessel_coeffs import LARGE_PIECES, SMALL_X, frozen_module, generated_block

import marcumq.specfun as specfun
from marcumq.errors import DomainError
from marcumq.specfun import (
    bessel_i0_scaled,
    bessel_i1_scaled,
    erfc_diff,
    erfc_diff_centered,
    log_bessel_i0,
)

# mpmath (50 dps) references
I0_2 = 2.2795853023360673
I0_001 = 1.0000250001562504
I0_700 = 1.5295933476718737e302
I1_1 = 0.56515910399248503
I1_2 = 1.5906368546373291
I0E_2 = 0.30850832255367104
I0E_400 = 0.01995335628193999
I1E_400 = 0.019928398958903542
ERFC_1 = 0.15729920705028513
ERF_1_SQRT2 = 0.6826894921370859
ERFC_DIFF_13_13001 = 4.4776885048435334e-77
ERFC_DIFF_CENTERED_3_1EM20 = 1.3925305194674785e-24  # mp.dps = 80


def i0(x):
    return math.exp(x) * bessel_i0_scaled(x)


def i1(x):
    return math.exp(x) * bessel_i1_scaled(x)


# the argument guards' old predicate, frozen: a guard refuses x exactly here
def _refused_by_old_guard(x):
    return not (x >= 0.0) or math.isinf(x)


@pytest.mark.parametrize("fn", [bessel_i0_scaled, bessel_i1_scaled, log_bessel_i0])
@pytest.mark.parametrize(
    "x",
    [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 8.0, 1e300, 1.7976931348623157e308,
     -1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan, 0, 3, -2],
    ids=repr,
)
def test_guard_refuses_what_it_refused(fn, x):
    if _refused_by_old_guard(x):
        with pytest.raises(DomainError, match=re.escape(f"{fn.__name__} requires finite x >= 0, got {x!r}")):
            fn(x)
    else:
        assert math.isfinite(fn(x))


# ints past the double range, which the frozen predicate cannot take (math.isinf
# raises for them): refused by their size, since some have no printable repr
@pytest.mark.parametrize("fn", [bessel_i0_scaled, bessel_i1_scaled, log_bessel_i0])
@pytest.mark.parametrize(
    "x, quoted",
    [
        (10**400, "an int of 1329 bits"),
        (2**1024, "an int of 1025 bits"),
        (10**5000, "an int of 16610 bits"),
        (-(10**400), "an int of 1329 bits"),
        (int(1.7976931348623157e308) + 1, "1797693134862315708145274237317043567980... (309 characters)"),
    ],
    ids=("10**400", "2**1024", "10**5000", "-10**400", "DBL_MAX+1"),
)
def test_guard_refuses_ints_past_the_double_range(fn, x, quoted):
    with pytest.raises(DomainError, match=re.escape(f"{fn.__name__} requires finite x >= 0, got {quoted}")):
        fn(x)
    assert math.isfinite(fn(int(1.7976931348623157e308)))


class TestBesselI0:
    def test_at_zero(self):
        assert i0(0.0) == 1.0

    def test_series_values(self):
        assert i0(2.0) == pytest.approx(I0_2, rel=1e-14)
        assert i0(0.01) == pytest.approx(I0_001, rel=1e-14)

    def test_large_argument(self):
        assert i0(700.0) == pytest.approx(I0_700, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            bessel_i0_scaled(math.inf)


class TestBesselI1:
    def test_series_values(self):
        assert i1(1.0) == pytest.approx(I1_1, rel=1e-14)
        assert i1(2.0) == pytest.approx(I1_2, rel=1e-14)

    def test_below_i0(self):
        for x in (0.01, 0.5, 3.0, 15.0, 80.0, 650.0):
            assert bessel_i1_scaled(x) < bessel_i0_scaled(x)

    def test_derivative_identity(self):
        # d/dx I0 = I1, central differences
        h = 1e-5
        for x in (0.1, 0.7, 3.0, 9.0, 14.0, 20.0):
            fd = (i0(x + h) - i0(x - h)) / (2 * h)
            assert fd == pytest.approx(i1(x), rel=1e-6)


class TestScaledBessel:
    def test_at_zero(self):
        assert bessel_i0_scaled(0.0) == 1.0

    def test_values(self):
        assert bessel_i0_scaled(2.0) == pytest.approx(I0E_2, rel=1e-14)
        assert bessel_i0_scaled(400.0) == pytest.approx(I0E_400, rel=1e-14)
        assert bessel_i1_scaled(400.0) == pytest.approx(I1E_400, rel=1e-14)

    def test_asymptote_at_400(self):
        # leading asymptotic term 1/sqrt(2 pi x) (1 + 1/(8x))
        lead = (1 + 1 / 3200) / math.sqrt(2 * math.pi * 400)
        assert bessel_i0_scaled(400.0) == pytest.approx(lead, rel=1e-6)

    def test_monotone_decreasing(self):
        xs = [0.0, 0.5, 1.0, 5.0, 14.9, 15.1, 40.0, 400.0, 1e5]
        vals = [bessel_i0_scaled(x) for x in xs]
        assert all(u > v for u, v in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bessel_i0_scaled(-1.0)
        with pytest.raises(DomainError):
            bessel_i1_scaled(-0.5)

    @given(st.floats(min_value=0.0, max_value=700.0))
    @settings(max_examples=200, deadline=None)
    def test_consistent_with_plain(self, x):
        assert bessel_i0_scaled(x) * math.exp(x) == pytest.approx(sp.i0(x), rel=1e-12)
        assert bessel_i1_scaled(x) * math.exp(x) == pytest.approx(sp.i1(x), rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, x):
        assert bessel_i0_scaled(x) == pytest.approx(sp.i0e(x), rel=5e-14)
        assert bessel_i1_scaled(x) == pytest.approx(sp.i1e(x), rel=5e-14)


# every piece boundary of the scaled kernels
BOUNDARIES = (SMALL_X, *(hi for _, hi, _ in LARGE_PIECES))


class TestBesselKernels:
    @pytest.mark.parametrize("x,i0e,i1e,i0,i1", BESSEL_FROZEN)
    def test_frozen_mpmath(self, x, i0e, i1e, i0, i1):
        assert bessel_i0_scaled(x) == pytest.approx(i0e, rel=1e-15, abs=0.0)
        assert bessel_i1_scaled(x) == pytest.approx(i1e, rel=1e-15, abs=0.0)
        if i0 is not None:
            assert math.exp(x) * bessel_i0_scaled(x) == pytest.approx(i0, rel=1e-15, abs=0.0)
            assert math.exp(x) * bessel_i1_scaled(x) == pytest.approx(i1, rel=1e-15, abs=0.0)

    def test_exact_at_zero(self):
        assert bessel_i0_scaled(0.0) == 1.0
        assert bessel_i1_scaled(0.0) == 0.0

    @pytest.mark.parametrize("b", BOUNDARIES)
    def test_strictly_decreasing_across_boundary(self, b):
        # steps of 1e-13 b change i0e by ~5e-14 relative, far above its rounding
        xs = [b * (1.0 + 1e-13 * k) for k in range(-3, 4)]
        vals = [bessel_i0_scaled(x) for x in xs]
        assert all(u > v for u, v in zip(vals, vals[1:]))

    @pytest.mark.parametrize("b", BOUNDARIES)
    def test_continuous_at_boundary(self, b):
        # the two pieces meeting at b, each evaluated on its own side of it
        below, above = math.nextafter(b, 0.0), math.nextafter(b, math.inf)
        for f in (bessel_i0_scaled, bessel_i1_scaled):
            assert f(above) == pytest.approx(f(below), rel=1e-15)
            assert f(b) == pytest.approx(f(above), rel=1e-15)

    def test_generated_code_and_data_regenerate(self):
        # specfun's generated block and frozen_bessel.py are exactly what
        # make_bessel_coeffs.py prints, so neither was edited by hand
        with open(specfun.__file__, encoding="utf-8") as fh:
            source = fh.read()
        with open(frozen_bessel.__file__, encoding="utf-8") as fh:
            frozen = fh.read()
        with mp.workdps(50):
            assert generated_block() in source
            assert frozen_module() == frozen


class TestLogBesselI0:
    @pytest.mark.parametrize("x", [1e-150, 1e-10, 1e-4, 0.3, SMALL_X, 8.5, 50.0, 1e6])
    def test_matches_mpmath(self, x):
        with mp.workdps(400):  # log I0(1e-150) ~ 2.5e-301 needs 300+ digits of I0
            expected = float(mp.log(mp.besseli(0, mp.mpf(x))))
        assert log_bessel_i0(x) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_zero_and_domain(self):
        assert log_bessel_i0(0.0) == 0.0
        with pytest.raises(DomainError):
            log_bessel_i0(-1.0)
        with pytest.raises(DomainError):
            log_bessel_i0(math.nan)


def _around(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


# across the piece boundaries 8, 16 and 1000, the ends of the range and
# a geometric grid between
ACROSS_THE_PIECES = (
    [0.0, 5e-324, 1e-300, 1e-8, 0.5, *_around(SMALL_X), 12.0, *_around(16.0), 300.0, *_around(1000.0), 1e300]
    + [10.0 ** (k / 8.0) for k in range(-40, 57)]
)


class TestI0eAndLogI0:
    @pytest.mark.parametrize("x", ACROSS_THE_PIECES)
    def test_same_doubles_as_the_public_functions(self, x):
        i0e, log_i0 = specfun._i0e_and_log_i0(x)
        assert (i0e.hex(), log_i0.hex()) == (bessel_i0_scaled(x).hex(), log_bessel_i0(x).hex())


class TestUncheckedEntries:
    @pytest.mark.parametrize("x", [*ACROSS_THE_PIECES, 1.7976931348623157e308])
    def test_same_doubles_as_the_public_functions(self, x):
        i0e, i1e = specfun._i0e_i1e(x)
        expected = (bessel_i0_scaled(x).hex(), bessel_i1_scaled(x).hex())
        assert (i0e.hex(), i1e.hex()) == expected
        assert specfun._i0e(x).hex() == expected[0]


class TestHankelDifference:
    @pytest.mark.parametrize(
        "x", [*_around(1000.0)[1:], 1500.0, 1e4, 1e8, 1e15, 1e16, 1e100, 1e200, 1e204]
    )
    def test_matches_mpmath(self, x):
        # e^-x (I0 - I1) ~ 1/(2x sqrt(2 pi x)): the plain difference of the
        # two kernels is 5% off at 1e15 and 0.0 from 1e16; this one keeps
        # full accuracy while the value is a normal double
        xm = mp.mpf(x)
        with mp.workdps(50 + int(2 * mp.log10(xm))):
            expected = float((mp.besseli(0, xm) - mp.besseli(1, xm)) * mp.exp(-xm))
        assert specfun._i0e_minus_i1e_hankel(x) == pytest.approx(expected, rel=5e-16, abs=0.0)


class TestErf:
    def test_trivia(self):
        assert math.erf(0.0) == 0.0
        assert math.erfc(0.0) == 1.0
        assert math.erf(-0.7) == -math.erf(0.7)

    def test_values(self):
        assert math.erfc(1.0) == pytest.approx(ERFC_1, rel=1e-13)
        assert math.erf(1 / math.sqrt(2)) == pytest.approx(ERF_1_SQRT2, rel=1e-13)

    def test_deep_tail_relative_accuracy(self):
        assert math.erfc(5.0) == pytest.approx(1.5374597944280349e-12, rel=1e-13, abs=0.0)
        assert math.erfc(10.0) == pytest.approx(2.0884875837625448e-45, rel=1e-13, abs=0.0)
        assert math.erfc(20.0) == pytest.approx(5.3958656116079009e-176, rel=1e-13, abs=0.0)

    def test_deep_tail_no_overflow(self):
        # erfc(26) is still a positive subnormal; erfc(40) underflows to 0
        assert 0.0 < math.erfc(26.0) < 1e-290
        assert 0.0 <= math.erfc(40.0) < 1e-300

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=300, deadline=None)
    def test_erf_plus_erfc(self, x):
        assert math.erf(x) + math.erfc(x) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, x):
        assert math.erfc(-x) == pytest.approx(2.0 - math.erfc(x), rel=1e-14, abs=1e-14)


class TestErfcDiff:
    def test_identical_args(self):
        for c in (-3.0, 0.0, 7.5, 100.0):
            assert erfc_diff(c, c) == 0.0

    def test_full_range(self):
        assert erfc_diff(0.0, 40.0) == pytest.approx(1.0, abs=1e-13)

    def test_large_close_args(self):
        assert erfc_diff(13.0, 13.001) == pytest.approx(ERFC_DIFF_13_13001, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (5.5, 7.0, 7.357847876136143e-15),
            (8.0, 8.5, 1.1221534848911594e-29),
            (12.0, 14.0, 1.3562611692059042e-64),
            (16.0, 16.2, 2.324814258557826e-113),
            (20.0, 21.0, 5.395865611607901e-176),
            (21.2, 22.6, 1.7190774436258463e-197),
            (24.0, 30.0, 1.6489825831519335e-252),
            (26.0, 26.3, 5.663191549831237e-296),
        ],
    )
    def test_deep_tail_relative_accuracy(self, x, y, expected):
        # past x = 5 the plain subtraction of math.erfc keeps libm's ~1 ulp
        assert erfc_diff(x, y) == pytest.approx(expected, rel=4e-16, abs=0.0)

    def test_order_enforced(self):
        with pytest.raises(DomainError, match=r"^erfc_diff requires x <= y, got x=2\.0 > y=1\.0$"):
            erfc_diff(2.0, 1.0)

    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.nan, -1.0)])
    def test_nan_refused(self, x, y):
        # NaN fails the one ordering test too, but is reported as NaN
        with pytest.raises(DomainError, match="^erfc_diff requires finite arguments$"):
            erfc_diff(x, y)

    def test_infinities(self):
        assert erfc_diff(-math.inf, math.inf) == 2.0
        assert erfc_diff(math.inf, math.inf) == 0.0
        assert erfc_diff(-math.inf, -math.inf) == 0.0

    @pytest.mark.parametrize(
        "x,y",
        [(10**400, 10**401), (10**400, 10**400), (-(10**400), 1.0), (1.0, 10**400), (-(10**400), -(10**400))],
    )
    def test_int_past_the_double_range_refused(self, x, y):
        # not math's OverflowError, and not the x == y shortcut's 0.0
        with pytest.raises(DomainError, match=r"^erfc_diff requires arguments in the double range, got x="):
            erfc_diff(x, y)

    def test_misordered_huge_ints_refused(self):
        with pytest.raises(DomainError, match=r"^erfc_diff requires x <= y, got x=an int of 1333 bits > y="):
            erfc_diff(10**401, 10**400)

    def test_ints_in_the_double_range(self):
        assert erfc_diff(1, 2) == erfc_diff(1.0, 2.0)
        # their sum is past the double range, each of them is not
        assert erfc_diff(10**308, 17 * 10**307) == erfc_diff(1e308, 1.7e308) == 0.0

    def test_tiny_separation_beats_naive(self):
        # naive subtraction returns 0 or a few noisy ulps here
        # the width is the one x + d rounds to (9.992e-14), not the nominal d
        x, d = 3.0, 1e-13
        w = (x + d) - x
        expected = w * 2 / math.sqrt(math.pi) * math.exp(-x * x)
        assert erfc_diff(x, x + d) == pytest.approx(expected, rel=1e-9, abs=0.0)

    @given(
        st.floats(min_value=-8.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_and_consistent(self, x, d):
        got = erfc_diff(x, x + d)
        assert got >= 0.0
        naive = math.erfc(x) - math.erfc(x + d)
        # compare only where naive subtraction loses under ~2 digits
        if naive > 0.02 * math.erfc(x):
            assert got == pytest.approx(naive, rel=1e-10)


class TestErfcDiffCentered:
    # endpoints m -/+ delta/2 are exact doubles here, so both entry points
    # see the same midpoint and width and must agree bit for bit
    @pytest.mark.parametrize(
        "m,delta",
        [(3.0, 2.0**-20), (-1.0, 2.0**-24), (0.5, 1.0), (6.0, 0.5), (-2.0, 3.0)],
    )
    def test_matches_erfc_diff(self, m, delta):
        assert erfc_diff_centered(m, delta) == erfc_diff(m - delta / 2, m + delta / 2)

    @pytest.mark.parametrize("m,delta", [(math.nan, 1.0), (1.0, math.nan), (math.nan, -1.0)])
    def test_nan_refused(self, m, delta):
        with pytest.raises(DomainError, match="^erfc_diff_centered requires finite arguments$"):
            erfc_diff_centered(m, delta)

    def test_negative_width_refused(self):
        with pytest.raises(DomainError, match="^width must be nonnegative, got -1e-30$"):
            erfc_diff_centered(1.0, -1e-30)

    @pytest.mark.parametrize("m", [math.inf, -math.inf])
    def test_infinite_midpoint(self, m):
        # erfc_diff(m, m) of the rounded endpoints
        assert erfc_diff_centered(m, 1.0) == 0.0

    @pytest.mark.parametrize("m", [-3.0, 0.0, 40.0])
    def test_zero_width_is_zero(self, m):
        assert erfc_diff_centered(m, 0.0) == 0.0

    @pytest.mark.parametrize("m,delta", [(10**400, 1.0), (1.0, 10**400), (10**400, 0.0), (-(10**400), 0)])
    def test_int_past_the_double_range_refused(self, m, delta):
        message = r"^erfc_diff_centered requires arguments in the double range, got m="
        with pytest.raises(DomainError, match=message):
            erfc_diff_centered(m, delta)

    @pytest.mark.parametrize("m,delta", [(10**400, -1.0), (1.0, -(10**400))])
    def test_huge_int_with_a_negative_width_refused(self, m, delta):
        with pytest.raises(DomainError, match="^width must be nonnegative, got "):
            erfc_diff_centered(m, delta)

    def test_width_below_ulp_of_midpoint(self):
        # 3 - 5e-21 and 3 + 5e-21 both round to 3.0; the explicit width keeps the value
        got = erfc_diff_centered(3.0, 1e-20)
        assert got > 0.0
        assert got == pytest.approx(ERFC_DIFF_CENTERED_3_1EM20, rel=1e-13, abs=0.0)


def _seeded_double(rng, exponent):
    """A seeded double of either sign with frexp exponent ``exponent`` (subnormal below -1021)."""
    return rng.choice([-1.0, 1.0]) * math.ldexp(rng.uniform(0.5, 1.0), exponent)


def _exact_residual(lo, hi):
    """(r, slack): the true 0.5 (hi - lo)^2 less the double d, and the size
    of the terms r is summed from, |r| + |delta_lo (2 delta + delta_lo)|."""
    delta = hi - lo
    delta_lo = Fraction(hi) - Fraction(lo) - Fraction(delta)
    r = (Fraction(hi) - Fraction(lo)) ** 2 / 2 - Fraction(0.5 * (delta * delta))
    return r, abs(r) + abs(delta_lo * (2 * Fraction(delta) + delta_lo))


class TestErrorFreeHelpers:
    # Dekker's product and the exponent split against exact rational
    # arithmetic.  A fault in either reaches both methods of the oracle's
    # trapezoid-expansion and trapezoid-Bessel pairs, so the gate cannot see it
    EPS = 2.0**-52

    def test_two_prod_is_exact(self):
        # frexp exponents summing to -968 or more (e_min + p - 1 in IEEE
        # terms), subnormal factors included, below the splitter's limit
        rng = random.Random("two_prod exact")
        for _ in range(4000):
            ex = rng.randint(-1073, 996)
            ey = rng.randint(max(-968 - ex, -1073), min(1000 - ex, 996))
            x, y = _seeded_double(rng, ex), _seeded_double(rng, ey)
            p, e = specfun._two_prod(x, y)
            assert p == x * y and Fraction(p) + Fraction(e) == Fraction(x) * Fraction(y), (x, y)

    def test_two_prod_error_term_underflows_below_the_limit(self):
        # just below that exponent sum the product is still the double x * y,
        # but its error term can fall under the subnormal range and round
        rng = random.Random("two_prod underflow")
        inexact = 0
        for _ in range(2000):
            ex = rng.randint(-1073, 0)
            x, y = _seeded_double(rng, ex), _seeded_double(rng, rng.randint(-990, -969) - ex)
            p, e = specfun._two_prod(x, y)
            assert p == x * y, (x, y)
            inexact += Fraction(p) + Fraction(e) != Fraction(x) * Fraction(y)
        assert inexact > 1000

    def test_two_prod_overflows_past_the_splitter_limit(self):
        # |x| from DBL_MAX / (2^27 + 1) ~ 1.34e300 up overflows the splitter's product
        limit = specfun._DBL_MAX / specfun._SPLITTER
        below = math.nextafter(limit, 0.0)
        for x in (below, -below):
            p, e = specfun._two_prod(x, 0.7)
            assert Fraction(p) + Fraction(e) == Fraction(x) * Fraction(0.7)
        for x in (limit, 1.4e300, -1e305):
            p, e = specfun._two_prod(x, 1e-10)
            assert math.isfinite(p) and math.isnan(e), x

    def test_split_exponent_residual(self):
        # r is the true exponent less d to a few roundings of its own terms,
        # wherever delta >= 2^-480 keeps the square's split exact; lo may be
        # subnormal.  From lo = 0, where hi - lo is exact, r is the square's
        # rounding alone, and exact
        rng = random.Random("split exponent")
        for i in range(4000):
            e = rng.randint(-480, 25)
            lo = abs(_seeded_double(rng, rng.randint(-1073, 60) if i % 2 else e + rng.randint(-5, 5)))
            hi = lo + math.ldexp(rng.uniform(0.5, 1.0), e)
            d, r = specfun._split_exponent(lo, hi)
            delta = hi - lo
            assert d == 0.5 * (delta * delta), (lo, hi)
            true_r, slack = _exact_residual(lo, hi)
            assert abs(Fraction(r) - true_r) <= self.EPS * slack, (lo, hi)
            d, r = specfun._split_exponent(0.0, delta)
            assert Fraction(r) == Fraction(delta) ** 2 / 2 - Fraction(d), delta

    def test_split_exponent_at_its_largest_delta(self):
        # the largest delta with delta^2 < 2^53 is still split; one ulp up, r is 0.0
        top = 94906265.62425154
        up = math.nextafter(top, math.inf)
        assert top * top < 2.0**53 <= up * up
        for lo in (0.0, 1e-3, 0.3, 7.25):
            hi = lo + top
            assert hi - lo == top
            d, r = specfun._split_exponent(lo, hi)
            true_r, slack = _exact_residual(lo, hi)
            assert d == 0.5 * (top * top) and abs(Fraction(r) - true_r) <= self.EPS * slack, lo
        assert specfun._split_exponent(0.0, up) == (0.5 * (up * up), 0.0)

    def test_split_exponent_in_the_subnormal_range(self):
        # where delta^2 is subnormal its split is no longer exact and r loses
        # its relative accuracy, but stays within the least subnormal of the
        # truth, where e^-r is 1.0 either way
        rng = random.Random("split exponent subnormal")
        past_the_claim = 0
        for _ in range(2000):
            lo = math.ldexp(rng.random(), rng.randint(-1074, -500))
            hi = lo + math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, -486))
            r = specfun._split_exponent(lo, hi)[1]
            true_r, slack = _exact_residual(lo, hi)
            assert abs(Fraction(r) - true_r) <= Fraction(5e-324), (lo, hi)
            past_the_claim += abs(Fraction(r) - true_r) > self.EPS * slack
        assert past_the_claim > 1000


def test_splitter_lives_in_specfun_only():
    # Dekker's splitter 2^27 + 1 is specfun._SPLITTER: a copy of it elsewhere
    # is a second hand-written error-free product
    package = pathlib.Path(specfun.__file__).parent
    holders = sorted(path.name for path in package.glob("*.py") if "134217729" in path.read_text())
    assert holders == ["specfun.py"]
