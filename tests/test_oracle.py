"""Tests for the cross-validated Marcum Q oracle.

Every frozen Q1 value has one source, the 50-digit Simon integral of
``truth.py``: ``make_frozen_q1.py`` prints every table into
``frozen_q1.py``, and ``TestFrozenTables`` checks that each table holds
that script's points.  The 50-digit Poisson mixture of ``mixture.py``
recomputes the trapezoid's scaled tails and the values past the span, so
Simon's integral, which the trapezoid also sums, is never their only
witness.  scipy's noncentral chi-square survival function provides an
independent implementation for cross-checks (Q1(a, b) is the survival of
ncx2(df=2, nc=a^2) at b^2).
"""

import functools
import math
import random
import re
import time
import tracemalloc

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import marcumq.oracle as oracle
from marcumq.errors import ConvergenceError, CrossValidationError, DomainError
from marcumq.oracle import (
    QArgs,
    _adaptive_quad,
    q1_asymptotic,
    q1_bessel_series,
    q1_diagonal,
    q1_quadrature,
    q1_reference,
    q1_series,
    q1_trapezoid,
    rice_pdf,
)

import frozen_q1
import make_frozen_q1
import mixture
from frozen_q1 import (
    Q1_FROZEN,
    Q1_FROZEN_ACROSS_TIE,
    Q1_FROZEN_EXPANSION,
    Q1_FROZEN_LARGE_A,
    Q1_FROZEN_NEAR_DIAGONAL,
    Q1_FROZEN_NEAR_TIE,
    Q1_FROZEN_OFF_DIAGONAL,
    Q1_FROZEN_PAST_SPAN,
    Q1_FROZEN_ROUTES,
    TAILS_FROZEN_HUGE,
    TRAPEZOID_FROZEN,
)
from make_frozen_q1 import in_the_band, on_the_expansion_route
from make_gauss_legendre import generated_block as gauss_legendre_block

# every frozen point with a >= 100 past the span
_PAST_THE_SPAN = {
    (a, b): q for (a, b), q in {**Q1_FROZEN_LARGE_A, **Q1_FROZEN_OFF_DIAGONAL}.items()
    if abs(b - a) > oracle._DIAGONAL_SPAN
}


TRAPEZOID_POINTS = sorted(TRAPEZOID_FROZEN)
# the frozen points where q1_reference pairs the trapezoid with the Bessel
# series: a < ASYMPTOTIC_MIN_A past the diagonal span, on either side of b = a,
# off the expansion's route
PAIRED_FROZEN = [
    (a, b) for a, b in TRAPEZOID_POINTS
    if abs(b - a) > oracle._DIAGONAL_SPAN and not on_the_expansion_route(a, b)
]
# QArgs's one message past a, b <= sqrt(DBL_MAX)
_PAST_THE_RANGE = r"^Q1 takes a, b <= sqrt\(DBL_MAX\) = 1\.3407807929942596e\+154, got \(a="


class TestFrozenTables:
    def test_keys_are_the_generators_points(self):
        # a table cannot drift from make_frozen_q1.py; no mpmath evaluation
        # here, as the full regeneration takes about 47 s
        for name, (_, points, _) in make_frozen_q1.TABLES.items():
            assert list(vars(frozen_q1)[name]) == points, name
        assert {route: list(t) for route, t in Q1_FROZEN_ROUTES.items()} == make_frozen_q1.ROUTE_POINTS
        # and frozen_q1.py holds no table the script does not print
        assert {name for name in vars(frozen_q1) if name.isupper()} == {*make_frozen_q1.TABLES, "Q1_FROZEN_ROUTES"}


class TestQArgs:
    def test_accepts_zero(self):
        QArgs(0.0, 0.0)

    @pytest.mark.parametrize(
        "a,b",
        [(-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0),
         pytest.param(10**400, 1.0, id="int-beyond-double"),
         pytest.param(1.0, -(10**400), id="negative-int-beyond-double")],
    )
    def test_rejects_bad_args(self, a, b):
        with pytest.raises(DomainError):
            QArgs(a, b)

    def test_replace_is_checked(self):
        assert QArgs(1.0, 2.0)._replace(b=3.0) == QArgs(1.0, 3.0)
        with pytest.raises(DomainError):
            QArgs(1.0, 2.0)._replace(a=-1.0)

    @pytest.mark.parametrize("a,b", [(True, 1.0), (1.0, False)])
    def test_rejects_bools(self, a, b):
        with pytest.raises(DomainError):
            QArgs(a, b)

    @pytest.mark.parametrize(
        "a,b,name",
        [pytest.param(10**400, 1.0, "a", id="int-401-digits"),
         # past 4300 digits repr() itself raises ValueError
         pytest.param(1.0, 10**5000, "b", id="int-5001-digits"),
         pytest.param(-(10**300), 1.0, "a", id="negative-int-301-digits"),
         pytest.param("x" * 500, 1.0, "a", id="long-str"),
         pytest.param(1.0, [1.0] * 300, "b", id="long-list")],
    )
    def test_message_stays_short_and_names_the_argument(self, a, b, name):
        with pytest.raises(DomainError) as exc:
            QArgs(a, b)
        msg = str(exc.value)
        assert msg.startswith(f"{name} must be ")
        assert len(msg) <= 100, msg


def _frozen_qargs(a, b):
    """QArgs's checks without its one-test path for two floats in
    [0, sqrt(DBL_MAX)]: a frozen copy, so the path cannot change what it
    guards against."""
    for name, v in (("a", a), ("b", b)):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= 1.7976931348623157e308:
            raise DomainError(f"{name} must be finite, got {oracle._brief(v)}")
        if v < 0:
            raise DomainError(f"{name} must be nonnegative, got {oracle._brief(v)}")
    if a > 1.3407807929942596e154 or b > 1.3407807929942596e154:
        raise DomainError(
            f"Q1 takes a, b <= sqrt(DBL_MAX) = 1.3407807929942596e+154, got (a={oracle._brief(a)}, b={oracle._brief(b)})"
        )
    return a, b


class _Float(float):
    pass


_QARG_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0,
                     1.3407807929942596e154, 1.3407807929942598e154]),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.sampled_from([2**1024 - 1, 2**1024, -(2**1024), 2**1023, True, False]),
    st.floats().map(_Float),
)


def _outcome(make, a, b):
    """What ``make(a, b)`` does, comparable across implementations: the stored
    values by type and bits, or the exception by class and message."""
    try:
        got = make(a, b)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return type(exc), str(exc)
    return tuple((type(v), v.hex() if isinstance(v, float) else v) for v in got)


class TestQArgsFrozen:
    @given(a=_QARG_VALUES, b=_QARG_VALUES)
    @settings(max_examples=1000, deadline=None)
    def test_same_outcome_as_the_frozen_checks(self, a, b):
        assert _outcome(QArgs, a, b) == _outcome(_frozen_qargs, a, b)

    def test_same_outcome_at_special_values(self):
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                  1.3407807929942596e154, 1.3407807929942598e154, 2**512, 1e200,
                  -1.0, 3, 2**1024, True, _Float(2.0), _Float(math.nan), "1.0", None]
        for a in values:
            for b in values:
                assert _outcome(QArgs, a, b) == _outcome(_frozen_qargs, a, b)


# the band's corners, and band points from the benchmark and the sandwich scan
_BAND_EXAMPLES = [
    (0.0, 0.0), (0.0, 1.0), (4.524937810560444, 5.524937810560444), (4.999999999999999, 4.999999999999999),
    (0.0, 0.06), (4.0, 5.0), (1.0, 2.0), (1e-300, 1.0),
]
# the band pair's one refusal outside the band, up to the point it quotes
_OUTSIDE_THE_BAND = (
    r"^the quadrature and the Poisson series cover a <= b <= a \+ 1 with ab < 25, got \(a="
)


def _refuses_outside_the_band(method, a, b):
    """method refuses (a, b) with the band's one message, quoting the point."""
    with pytest.raises(DomainError, match=f"{_OUTSIDE_THE_BAND}{re.escape(repr(a))}, b={re.escape(repr(b))}\\)$"):
        method(QArgs(a, b))


def _with_examples(test):
    for point in _BAND_EXAMPLES:
        test = example(point)(test)
    return test


# (a, a + u) with ab < 25, a log-uniform below 5 or 0, u in [0, 1]: b never rounds past a + 1
_BAND_POINTS = (
    st.one_of(st.just(0.0), st.floats(math.log(1e-3), math.log(5.0)).map(math.exp).filter(lambda a: a < 5.0))
    .flatmap(lambda a: st.tuples(st.just(a), st.floats(0.0, 1.0).map(lambda u: a + u)))
    .filter(lambda p: p[0] * p[1] < 25.0)
)


def _check_frozen(method, pair, expected):
    """In the band, method's value is within 1e-12 of the frozen value; outside it
    method refuses, and the frozen value is q1_reference's."""
    a, b = pair
    if in_the_band(a, b):
        assert method(QArgs(a, b)) == pytest.approx(expected, abs=1e-12)
    else:
        _refuses_outside_the_band(method, a, b)
        assert q1_reference(QArgs(a, b)).value == pytest.approx(expected, abs=1e-12)


def _frozen_full_range_quadrature(a: float, b: float) -> float:
    """q1_quadrature as it was with the full range: the tail [b, max(a, b) + 40]
    for b >= a and 1 - [0, b] for b < a.  A frozen copy of the range, so a
    change to the library's range cannot move the reference it is compared
    with; it is the library's own method, so no test takes it as a truth."""
    if b == 0.0:
        return 1.0
    seeds = [a + d for d in (-30, -20, -10, -5, -2, -1, 0, 1, 2, 5, 10, 20, 30)]
    integrand = lambda x: rice_pdf(x, a)
    if b >= a:
        return _adaptive_quad(integrand, b, max(a, b) + 40.0, seeds)
    return 1.0 - _adaptive_quad(integrand, 0.0, b, seeds)


class TestQuadrature:
    @given(_BAND_POINTS)
    @_with_examples
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_full_range(self, point):
        # panels past a + 20 are left out
        a, b = point
        assert q1_quadrature(QArgs(a, b)) == _frozen_full_range_quadrature(a, b), (a, b)

    @pytest.mark.parametrize("b,panels", [(4.0, 9), (4.5, 9), (5.0, 8)])
    def test_panel_count_in_the_band(self, monkeypatch, b, panels):
        # the tail ends at a + 20, at least 19 past b; the full
        # range to b + 40 took 11, 11 and 10
        calls = []
        panel = oracle._gk15_panel
        monkeypatch.setattr(oracle, "_gk15_panel", lambda *args: calls.append(args[1:3]) or panel(*args))
        q1_quadrature(QArgs(4.0, b))
        assert len(calls) == panels, calls
        assert max(hi for _, hi in calls) == 24.0

    @pytest.mark.parametrize("pair,expected", sorted(Q1_FROZEN.items()))
    def test_frozen_values(self, pair, expected):
        _check_frozen(q1_quadrature, pair, expected)

    def test_closed_form_a_zero(self):
        assert q1_quadrature(QArgs(0.0, 1.0)) == pytest.approx(math.exp(-0.5), abs=1e-13)

    def test_forms_agree_across_tie(self):
        # the tail form in the band, and outside it (below the tie, and
        # from ab = 25 on) the diagonal route q1_reference takes there, each
        # against the truth; within 2.9e-15 at these points
        for a in (0.1, 1.0, 2.0, 10.0, 20.0):
            for db in (-0.1, -0.01, 0.0, 0.01, 0.1):
                b = a + db
                if in_the_band(a, b):
                    got = q1_quadrature(QArgs(a, b))
                else:
                    _refuses_outside_the_band(q1_quadrature, a, b)
                    got = q1_reference(QArgs(a, b)).method_a_value
                assert got == pytest.approx(Q1_FROZEN_ACROSS_TIE[a, b], rel=0.0, abs=1e-14), (a, b)

    def test_full_mass_b_zero(self):
        # exactly 1 at a = b = 0, where the tail integral over [0, 20] is 1
        # only to within tol; b = 0 < a is outside the band
        assert q1_quadrature(QArgs(0.0, 0.0)) == 1.0
        for a in (0.0, 1e-300, 0.5, 3.0, 150.0):
            if a > 0.0:
                _refuses_outside_the_band(q1_quadrature, a, 0.0)
            assert q1_reference(QArgs(a, 0.0)).value == 1.0, a

    @pytest.mark.parametrize("a", [1e7, 1e16, 1e17, 1e20])
    @pytest.mark.parametrize("b_over_a", [pytest.param(1.0, id="tail"), pytest.param(0.5, id="complement")])
    def test_refuses_a_above_oracle_range(self, a, b_over_a):
        # the band pair's range is the band, ab < 25, on either side of b = a
        _refuses_outside_the_band(q1_quadrature, a, a * b_over_a)

    def test_range_limit_is_inclusive(self):
        # the band's corners answer, bit-identical to the full range
        for a, b in _BAND_EXAMPLES[:4]:
            assert q1_quadrature(QArgs(a, b)) == _frozen_full_range_quadrature(a, b), (a, b)

    def test_budget_exhaustion_raises(self, monkeypatch):
        # highly oscillatory integrand with a tiny panel budget
        monkeypatch.setattr(oracle, "_MAX_PANELS", 4)
        with pytest.raises(ConvergenceError, match="used 4 panels"):
            _adaptive_quad(lambda x: math.sin(1000.0 * x * x), 0.0, 10.0)


def _frozen_poisson_window(mean: float):
    """_poisson_window as it was with its mass summed in index order by
    fsum: a frozen copy, so a change to the library's window cannot move
    the reference it is compared with."""
    w = int(12.0 * math.sqrt(mean)) + 40
    m = int(mean)
    lo, hi = max(0, m - w), m + w
    pm = math.exp(-mean + m * math.log(mean) - math.lgamma(m + 1))
    pmf = [0.0] * (hi - lo + 1)
    pmf[m - lo] = pm
    v = pm
    for k in range(m, lo, -1):
        v *= k / mean
        pmf[k - 1 - lo] = v
    v = pm
    for k in range(m, hi):
        v *= mean / (k + 1)
        pmf[k + 1 - lo] = v
    mass = math.fsum(pmf)
    r = mean / (hi + 1)
    tail_hi = pmf[-1] * r / (1.0 - r) if r < 1.0 else math.inf
    if lo > 0:
        r = lo / mean
        tail_lo = pmf[0] * r / (1.0 - r) if r < 1.0 else math.inf
    else:
        tail_lo = 0.0
    return lo, hi, pmf, mass, tail_lo, tail_hi


def _window_bits(window):
    pmf, mass, tail = window
    return [v.hex() for v in pmf], mass.hex(), tail.hex()


# the band's largest Poisson mean, b^2/2 at its corner (4.5249..., 5.5249...), ab = 25
_LARGEST_BAND_MEAN = 5.524937810560444**2 / 2.0
# band means from 1e-3 up to the largest
_BAND_MEANS = [1e-3 * 10 ** (i / 4) for i in range(17)] + [_LARGEST_BAND_MEAN]


def _frozen_band_window(mean: float):
    """The frozen window at a band mean, where it starts at k = 0 with no
    lower tail, as (pmf, mass, upper tail): the form _poisson_window returns."""
    lo, hi, pmf, mass, tail_lo, tail_hi = _frozen_poisson_window(mean)
    assert lo == 0 and tail_lo == 0.0 and hi == len(pmf) - 1, (mean, lo, tail_lo)
    return pmf, mass, tail_hi


def _series_closure_form(a: float, b: float) -> float:
    """q1_series with its running Poisson CDF summed through a Neumaier
    closure in two loops, on the frozen window, with the mixture summed
    in index order: the reference for bit-identical results.  Its domain
    is the band, as the library's is; outside it, it raises the band's
    one refusal."""
    if not in_the_band(a, b):
        raise DomainError(
            f"the quadrature and the Poisson series cover a <= b <= a + 1 with ab < 25, got (a={a!r}, b={b!r})"
        )
    lam, y = a * a / 2.0, b * b / 2.0
    if lam == 0.0:
        return math.exp(-y)
    klo, khi, p, pmass, _, _ = _frozen_poisson_window(lam)
    jlo, jhi, q, qmass, _, _ = _frozen_poisson_window(y)
    acc = comp = 0.0

    def add(x):
        nonlocal acc, comp
        t = acc + x
        if abs(acc) >= abs(x):
            comp += (acc - t) + x
        else:
            comp += (x - t) + acc
        acc = t

    for j in range(jlo, min(klo, jhi + 1)):
        add(q[j - jlo])
    terms = []
    for k in range(klo, khi + 1):
        if jlo <= k <= jhi:
            add(q[k - jlo])
            cdf = (acc + comp) / qmass
        elif k > jhi:
            cdf = 1.0
        else:
            cdf = 0.0
        terms.append(p[k - klo] * cdf)
    return math.fsum(terms) / pmass


# (a, b, windows q1_series builds): points whose Poisson windows did not
# overlap, where the series had exits (inner window above the outer at
# (5, 30), (15, 40), (1, 30), below it at (30, 8.9)), all outside the band
# now and refused before any window is built
WINDOW_EDGE_POINTS = [
    (5.0, 30.0, 0),
    (15.0, 40.0, 0),
    (1.0, 30.0, 0),
    (30.0, 8.9, 0),
    (5.0, 26.945, 0),
    (30.0, 8.945, 0),
]
# and the points one window entry inside those edges, where both windows
# overlapped: (5, 26.908) had jlo == khi and (30, 8.957) jhi == klo.  Then
# points past the band's ab = 25: (20, 20), (99.99, 100.99), and
# (57.62..., 57.63...), where the inner window would start one entry below
# the outer one; in the band every window starts at 0
WINDOW_OVERLAP_POINTS = [
    (5.0, 26.833), (5.0, 26.908), (30.0, 8.957), (30.0, 9.056),
    (20.0, 20.0), (99.99, 100.99), (57.62108060179584, 57.62944521630858),
]


def _count_windows(monkeypatch) -> list:
    """Patch oracle._poisson_window to record the mean of every window built."""
    means, window = [], oracle._poisson_window
    monkeypatch.setattr(oracle, "_poisson_window", lambda mean: means.append(mean) or window(mean))
    return means


class TestSeries:
    @pytest.mark.parametrize("pair,expected", sorted(Q1_FROZEN.items()))
    def test_frozen_values(self, pair, expected):
        _check_frozen(q1_series, pair, expected)

    def test_empty_lower_tail(self):
        assert q1_series(QArgs(0.0, 0.0)) == 1.0

    # the full range's grid: in the band the closure form's bits, outside it
    # the same refusal from both
    @pytest.mark.parametrize("a", [0.05, 0.5, 2.0, 4.0, 20.0, 60.0])
    @pytest.mark.parametrize("b", [0.1, 1.0, 3.0, 19.1, 30.0, 70.0])
    def test_bit_identical_to_closure_form(self, a, b):
        assert _outcome(lambda a, b: (q1_series(QArgs(a, b)),), a, b) == _outcome(
            lambda a, b: (_series_closure_form(a, b),), a, b
        )

    @pytest.mark.parametrize("mean", _BAND_MEANS)
    def test_window_bit_identical_to_frozen_form(self, mean):
        # the window is built in another order; fsum rounds its mass correctly either way
        assert _window_bits(oracle._poisson_window(mean)) == _window_bits(_frozen_band_window(mean))

    @given(_BAND_POINTS)
    @_with_examples
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_frozen_form(self, point):
        a, b = point
        assert q1_series(QArgs(a, b)).hex() == _series_closure_form(a, b).hex()

    @pytest.mark.parametrize("a,b", [(a, b) for a, b, _ in WINDOW_EDGE_POINTS] + WINDOW_OVERLAP_POINTS)
    def test_disjoint_window_exits_bit_identical(self, a, b):
        # every such point lies outside the band: the series and its
        # closure form refuse it with the same message
        assert _outcome(lambda a, b: (q1_series(QArgs(a, b)),), a, b) == _outcome(
            lambda a, b: (_series_closure_form(a, b),), a, b
        )

    @pytest.mark.parametrize("a,b,built", [*WINDOW_EDGE_POINTS, (1.0, 2.0, 2)])
    def test_windows_built_only_where_they_overlap(self, a, b, built, monkeypatch):
        # a work count, not a time: a point outside the band is refused
        # before either window is built
        means = _count_windows(monkeypatch)
        if built:
            q1_series(QArgs(a, b))
        else:
            _refuses_outside_the_band(q1_series, a, b)
        assert sorted(means) == sorted([a * a / 2.0, b * b / 2.0][:built])

    def test_direct_calls_build_windows_only_where_they_overlap(self, monkeypatch):
        means = _count_windows(monkeypatch)
        a, below, above = 30.0, [8.9, 8.945], [48.97, 48.99, 60.0]
        # the oracle takes the Bessel series at b < a and builds no window
        assert [q1_reference(QArgs(a, b)).method_b for b in below] == ["bessel_series"] * 2 and means == []
        # called directly, the series refuses every point outside the band,
        # where the windows overlap (48.97, 30.5 past ab = 25) or not, and
        # builds both in it
        for b in below + above + [30.5]:
            _refuses_outside_the_band(q1_series, a, b)
        assert means == []
        q1_series(QArgs(4.0, 4.5))
        assert means == [4.0**2 / 2.0, 4.5**2 / 2.0]

    @pytest.mark.parametrize("a,b", [(5.0, 30.0), (30.0, 8.9), (1.0, 2.0)])
    def test_discarded_mass_checked_on_every_call(self, a, b, monkeypatch):
        # every call that answers checks the mass; outside the band none answers
        monkeypatch.setattr(oracle, "DEFAULT_TOL", 0.0)
        if in_the_band(a, b):
            with pytest.raises(ConvergenceError, match="discarded mass bound"):
                q1_series(QArgs(a, b))
        else:
            _refuses_outside_the_band(q1_series, a, b)

    @pytest.mark.parametrize("mean", [1e-3, 0.5, 12.5, _LARGEST_BAND_MEAN])
    def test_exit_tail_bounds_match_the_windows(self, mean):
        # the bound from the lgamma-form pmf at the window's end matches the
        # one the window takes from its recurrence; below, the frozen window
        # starts at k = 0 and has no tail
        pmf, _, tail = oracle._poisson_window(mean)
        _frozen_band_window(mean)
        hi = len(pmf) - 1
        r = mean / (hi + 1)
        assert oracle._pmf(mean, hi) * r / (1.0 - r) == pytest.approx(tail, rel=1e-9, abs=0.0)

    def test_published_spot_values(self):
        # (20, 20), ab = 400, and (2, 1) are outside the band: the oracle
        # gives the published values
        for (a, b), published in {(20.0, 20.0): 0.50997, (2.0, 1.0): 0.91810}.items():
            _refuses_outside_the_band(q1_series, a, b)
            assert q1_reference(QArgs(a, b)).value == pytest.approx(published, abs=1e-4)

    def test_window_cap_raises_before_allocating(self):
        # the band caps each window at 102 entries: (2e5, 2e5), where
        # each would hold ~3.4e6, is refused before anything is allocated
        start = time.perf_counter()
        tracemalloc.start()
        try:
            _refuses_outside_the_band(q1_series, 2e5, 2e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 64 * 1024

    def test_larger_window_refused_before_the_smaller_is_built(self):
        # the windows overlap, b^2/2's would hold 2,000,061 entries and
        # a^2/2's just under 2,000,000; the point is refused before either
        start = time.perf_counter()
        tracemalloc.start()
        try:
            _refuses_outside_the_band(q1_series, 117840.0, 117850.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 64 * 1024

    def test_disjoint_exit_before_the_window_cap(self):
        # where the disjoint-window exit answered before any window was
        # built, the series refuses, and the oracle gives the exit's exact
        # value: Q1 underflows to 0.0, or 1 - Q1 to 0.0
        for (a, b), exit_value in {(1.0, 2e5): 0.0, (2e5, 3e5): 0.0, (3e5, 2e5): 1.0}.items():
            _refuses_outside_the_band(q1_series, a, b)
            assert q1_reference(QArgs(a, b)).value == exit_value

    def test_exit_tail_bounds_at_the_largest_mean(self):
        # the mass check at the band's largest mean: the window starts at
        # k = 0, so nothing lies below it, and the geometric bound is within
        # 1% of the tail above (30-digit quadrature of the incomplete gamma
        # integral; 0.20% over here)
        mean = _LARGEST_BAND_MEAN
        pmf, _, tail = oracle._poisson_window(mean)
        _frozen_band_window(mean)
        hi = len(pmf) - 1
        with mp.workdps(30):
            m = mp.mpf(mean)
            # P[X > hi] = P(hi + 1, m), substituted about t = m into the pmf
            # at hi times a smooth integral
            pmf_hi = mp.exp(-m + hi * mp.log(m) - mp.loggamma(hi + 1))
            above = pmf_hi * mp.quad(lambda s: mp.exp(hi * mp.log1p(-s / m) + s), [0, 1, 5, m])
        assert tail == pytest.approx(float(above), rel=0.01)


class TestAsymptotic:
    @pytest.mark.parametrize("pair,expected", sorted(Q1_FROZEN_LARGE_A.items()))
    def test_frozen_values(self, pair, expected):
        assert q1_asymptotic(QArgs(*pair)) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("a,b", [(1e4, 0.05), (100.0, 9.9), (100.0, 1e-3)])
    def test_complement_underflow_is_exactly_one(self, a, b):
        assert q1_asymptotic(QArgs(a, b)) == 1.0
        assert q1_reference(QArgs(a, b)).value == 1.0

    def test_edges_match_series(self):
        # Q1(a, 0) = 1 and Q1(0, b) = e^(-b^2/2)
        assert q1_asymptotic(QArgs(150.0, 0.0)) == 1.0
        assert q1_asymptotic(QArgs(0.0, 1.5)) == math.exp(-1.125)

    def test_agrees_with_series(self):
        # within 1.1e-16 of the truth at these 55 points; the Poisson
        # series it was held to at 1e-13 is 7e-15 off the expansion here
        for (a, b), expected in Q1_FROZEN_EXPANSION.items():
            assert q1_asymptotic(QArgs(a, b)) == pytest.approx(expected, rel=0.0, abs=1e-15), (a, b)

    def test_outside_domain_raises(self):
        # at xi = ab = 1 the terms grow before reaching double precision
        with pytest.raises(ConvergenceError, match="grows before reaching 1e-17"):
            q1_asymptotic(QArgs(1.0, 1.0))

    def test_overflowing_xi_raises(self):
        # ab = inf would give NaN terms, which no growth test would stop;
        # QArgs refuses such a point first, and up to its limit ab is finite
        with pytest.raises(DomainError, match=_PAST_THE_RANGE):
            q1_asymptotic(QArgs(1e200, 1e200))
        limit = oracle.MAX_ARG
        assert q1_asymptotic(QArgs(limit, limit)) == 0.5
        assert q1_asymptotic(QArgs(limit, 1.0)) == 1.0

    @pytest.mark.parametrize("a,b", [(1e-200, 1e-200), (5e-324, 5e-324), (1e-310, 5e-324)])
    def test_underflowing_xi_raises(self, a, b):
        # ab rounds to 0.0 and both recurrences would divide by it
        with pytest.raises(ConvergenceError, match="xi = ab underflows to 0.0"):
            q1_asymptotic(QArgs(a, b))

    def test_infinite_term_raises(self):
        # a tiny ab still in the double range makes the second term inf
        with pytest.raises(ConvergenceError, match="term 1 is inf"):
            q1_asymptotic(QArgs(1e-300, 2.0))

    @pytest.mark.parametrize(
        "a,b,kernel,message",
        [
            # b < a: the I0 Hankel sum at ab = 0.02 grows from its first term
            (2.0, 0.01, "_i0e_hankel", "term 1 grows before reaching 1e-17"),
            # and at a subnormal ab its first term is inf
            (1.0, 1e-310, "_i0e_hankel", "term 1 is inf"),
            # b >= a: rho = b/a overflows, so the closed-form term is inf
            (5e-324, 1.0, "_q1_large_xi", "term 0 is inf"),
        ],
    )
    def test_each_kernel_refusal(self, a, b, kernel, message):
        with pytest.raises(ConvergenceError, match=f"^asymptotic series {message}") as info:
            q1_asymptotic(QArgs(a, b))
        assert info.traceback[-1].name == kernel


def _frozen_value(a, b):
    s, d = TRAPEZOID_FROZEN[a, b]
    return s * math.exp(-d)


def _coarse(monkeypatch, tol):
    """Size q1_trapezoid's rule, and check it, for the relative tolerance tol."""
    monkeypatch.setattr(oracle, "_TRAPEZOID_TOL", tol)
    monkeypatch.setattr(oracle, "_TRAPEZOID_LN_STRIP", math.log(2.0 / tol))


# q1_trapezoid's node count under the fitted first rule that the strip
# theorem replaced (N = max(56/ln(1/zeta), 8.7 sqrt(ab) + 8), doubled until
# the N/2 estimate met 1e-15): at every frozen point it serves past the
# span, and at perfbench's eight off-diagonal large_arg points
FITTED_RULE_NODES = {
    (1.0, 30.0): 42, (2.0, 12.0): 53, (0.5, 200.0): 33, (3.0, 80.0): 31, (4.0, 5.0): 253,
    (20.0, 25.0): 37, (1.0, 50.0): 36, (0.0, 30.0): 9, (30.0, 67.0): 29, (0.593, 37.229): 51,
    (7.1403525920058035, 41.18460043448496): 30, (6.27493505783561, 40.55297290545762): 31,
    (20.0, 1.0): 49, (30.0, 2.0): 34, (0.0001, 5.0): 11, (0.03, 0.02): 141, (97.3, 701.6): 28,
    (0.3133, 0.04155): 29, (0.23, 0.023): 27, (2.0, 5e-08): 11,
    (0.5, 1.7): 47, (1.0, 2.5): 63, (10.0, 11.5): 125, (20.0, 23.0): 61, (50.0, 53.0): 60, (99.9, 101.2): 138,
    (1000.0, 1010.0): 28, (1000.0, 1003.0): 60, (30000.0, 30003.0): 60, (1000.0, 997.0): 60,
    (10000.0, 10003.0): 60, (30000.0, 29997.0): 60, (326458.87147227593, 326457.48268537264): 129,
    (1000000.0, 999995.0): 36,
    (3000.0, 2997.0): 60, (3000.0, 3003.0): 60, (10000.0, 9997.0): 60,
}
# b > a frozen Q1 past the span, where the trapezoid's scaled value is Q1 e^d
_Q1_PAST_SPAN_ABOVE = {
    (a, b): q for (a, b), q in {**Q1_FROZEN_PAST_SPAN, **Q1_FROZEN_OFF_DIAGONAL}.items() if b > a
}


class TestTrapezoid:
    def test_frozen_table_regenerates(self):
        # the Poisson mixture gives every (S, d) that truth.py does, to the bit
        assert mixture.scaled_tails(TRAPEZOID_FROZEN) == TRAPEZOID_FROZEN

    @pytest.mark.parametrize("a,b", TRAPEZOID_POINTS)
    def test_frozen_values(self, a, b):
        s, d = TRAPEZOID_FROZEN[a, b]
        res = q1_trapezoid(QArgs(a, b))
        assert res.exponent == d
        assert res.complement is (b < a)
        assert res.scaled == pytest.approx(s, rel=1e-14, abs=0.0)
        assert res.error <= 1e-15 * res.scaled

    def test_scaled_value_past_the_double_range(self):
        # Q1(1, 50) = 2.46e-523: value underflows, scaled and exponent keep it
        res = q1_trapezoid(QArgs(1.0, 50.0))
        assert res.value == 0.0
        log10 = math.log10(res.scaled) - res.exponent / math.log(10.0)
        assert log10 == pytest.approx(math.log10(2.4585422535121608) - 523.0, abs=1e-12)

    @pytest.mark.parametrize("a,b", TRAPEZOID_POINTS)
    def test_error_bound_covers_the_error(self, a, b):
        s, _ = TRAPEZOID_FROZEN[a, b]
        res = q1_trapezoid(QArgs(a, b))
        assert abs(res.scaled - s) <= res.error

    @pytest.mark.parametrize("a,b", sorted(_Q1_PAST_SPAN_ABOVE))
    def test_error_bound_covers_the_error_past_the_span(self, a, b):
        res = q1_trapezoid(QArgs(a, b))
        with mp.workdps(30):
            s = float(mp.mpf(_Q1_PAST_SPAN_ABOVE[a, b]) * mp.exp(res.exponent))
        assert abs(res.scaled - s) <= res.error

    @pytest.mark.parametrize("a,b", TRAPEZOID_POINTS)
    def test_error_estimate_bounds_the_error(self, a, b, monkeypatch):
        # rules sized for coarse tolerances, where the strip term is most of
        # the bound: it still covers the actual error, and meets tol
        s, _ = TRAPEZOID_FROZEN[a, b]
        for tol in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13):
            _coarse(monkeypatch, tol)
            res = q1_trapezoid(QArgs(a, b))
            assert abs(res.scaled - s) <= res.error, (tol, res)
            assert res.error <= tol * res.scaled

    @pytest.mark.parametrize("a,b", sorted(_Q1_PAST_SPAN_ABOVE))
    def test_coarse_bound_covers_the_error_past_the_span(self, a, b, monkeypatch):
        # near b = a, where the pole at ln(1/zeta) sizes N
        with mp.workdps(30):
            s = float(mp.mpf(_Q1_PAST_SPAN_ABOVE[a, b]) * mp.exp(0.5 * (b - a) ** 2))
        for tol in (1e-3, 1e-6, 1e-9):
            _coarse(monkeypatch, tol)
            res = q1_trapezoid(QArgs(a, b))
            assert abs(res.scaled - s) <= res.error <= tol * res.scaled, (tol, res)

    def test_coarse_rules_are_coarse(self, monkeypatch):
        # so the test above sees errors far above the rounding
        _coarse(monkeypatch, 1e-3)
        worst = max(abs(q1_trapezoid(QArgs(a, b)).scaled / s - 1.0) for (a, b), (s, _) in TRAPEZOID_FROZEN.items())
        assert worst > 1e-7

    def test_doubling_evaluates_each_node_once(self, monkeypatch):
        # N sized for 1e-8 while the check asks 1e-15: only the strip term
        # misses, and one doubling reuses every node
        seen = []
        terms = oracle._simon_terms

        def spy(ks, h, *coeffs):
            seen.extend(k * h for k in ks)
            return terms(ks, h, *coeffs)

        monkeypatch.setattr(oracle, "_simon_terms", spy)
        monkeypatch.setattr(oracle, "_TRAPEZOID_LN_STRIP", math.log(2.0 / 1e-8))
        res = q1_trapezoid(QArgs(2.0, 12.0))
        assert res.nodes == len(seen) > FITTED_RULE_NODES[2.0, 12.0] // 2
        assert len({round(phi, 12) for phi in seen}) == len(seen)
        assert res.scaled == pytest.approx(TRAPEZOID_FROZEN[2.0, 12.0][0], rel=1e-15, abs=0.0)
        assert res.error <= 1e-15 * res.scaled

    def test_bound_missing_at_the_cap_is_returned(self, monkeypatch):
        # N sized for 1e-3, and no room under the cap to double: the rule
        # returns its bound, which misses 1e-15 but covers the error
        monkeypatch.setattr(oracle, "_TRAPEZOID_LN_STRIP", math.log(2.0 / 1e-3))
        monkeypatch.setattr(oracle, "_TRAPEZOID_MAX_NODES", 20)
        res = q1_trapezoid(QArgs(2.0, 12.0))
        s = TRAPEZOID_FROZEN[2.0, 12.0][0]
        assert res.nodes < 20 and 1e-15 * res.scaled < res.error <= 1e-3 * res.scaled
        assert abs(res.scaled - s) <= res.error

    @pytest.mark.parametrize(
        "a,b", [(0.5, 200.0), (3.0, 80.0), (50.0, 300.0), (99.0, 1e4), (1.0, 1e6), (90.0, 1e6)]
    )
    def test_nodes_do_not_grow_with_ab(self, a, b):
        # N grows as sqrt(ab), but only the nodes up to the cut are evaluated
        assert q1_trapezoid(QArgs(a, b)).nodes <= 40

    def test_fewer_nodes_than_the_fitted_rule(self):
        for (a, b), nodes in FITTED_RULE_NODES.items():
            assert q1_trapezoid(QArgs(a, b)).nodes <= nodes, (a, b)
        total = sum(q1_trapezoid(QArgs(a, b)).nodes for a, b in TRAPEZOID_POINTS)
        assert total <= 0.65 * sum(FITTED_RULE_NODES[p] for p in TRAPEZOID_POINTS)

    @pytest.mark.parametrize(
        "a,b,rel", [(20.0, 1.0, 2.5e-16), (0.3133, 0.04155, 8e-16), (0.23, 0.023, 8e-16), (2.0, 5e-08, 8e-16)]
    )
    def test_complement_weight_follows_the_rounding_term(self, a, b, rel):
        # 2ab <= 50: the exp weight wins at (20, 1), where expm1 alone was
        # 7.6e-16 off, and the expm1 weight where the exp form cancels
        s, _ = TRAPEZOID_FROZEN[a, b]
        assert q1_trapezoid(QArgs(a, b)).scaled == pytest.approx(s, rel=rel, abs=0.0)

    def test_calls_no_bessel_function(self, monkeypatch):
        def no_bessel(x):
            raise AssertionError("Bessel function called")

        monkeypatch.setattr(oracle, "bessel_i0_scaled", no_bessel)
        for a, b in [(1.0, 30.0), (20.0, 1.0)]:
            q1_trapezoid(QArgs(a, b))

    def test_both_weights_from_one_sine_a_node(self, monkeypatch):
        # at (3, 1), 2ab <= 50: the exp and expm1 weights share each node's
        # sine, square and rational
        calls = []
        sin = math.sin

        def counting_sin(t):
            calls.append(t)
            return sin(t)

        monkeypatch.setattr(math, "sin", counting_sin)
        res = q1_trapezoid(QArgs(3.0, 1.0))
        assert len(calls) == res.nodes > 0

    def test_a_zero_is_the_rayleigh_tail(self):
        for b in (30.0, 5.0, 0.5):
            res = q1_trapezoid(QArgs(0.0, b))
            assert (res.scaled, res.exponent) == (1.0, b * b / 2)

    def test_complement_at_b_zero_is_zero(self):
        res = q1_trapezoid(QArgs(3.0, 0.0))
        assert res.complement and res.scaled == 0.0 and res.exponent == 4.5

    @pytest.mark.parametrize(
        "a,b,scaled",
        [
            (5e-324, 5.0, 1.0),  # Q1(0+, 5) = e^-12.5
            (1e-300, 1.0, 1.0),
            (1e-200, 1e-180, 1.0),  # ab underflows to 0
            (5.0, 5e-324, 0.0),  # 1 - Q1 ~ e^-d zeta ab/2 underflows
            (1e-180, 1e-200, 0.0),
            (2.0, 1e-158, 5e-317),  # zeta ab/2, subnormal
        ],
    )
    def test_subnormal_and_underflowing_arguments(self, a, b, scaled):
        res = q1_trapezoid(QArgs(a, b))
        assert res.complement is (b < a) and res.scaled == pytest.approx(scaled, rel=1e-15, abs=0.0)

    def test_largest_products(self):
        # 2ab = 2e12: 16 and 26 nodes, to 1e-15 of the Bessel series and of
        # the 50-digit 1 - Q1
        far, near = q1_trapezoid(QArgs(99.9, 1e6)), q1_trapezoid(QArgs(1e6, 999995.0))
        series = q1_bessel_series(QArgs(99.9, 1e6))
        assert far.exponent == series.exponent
        assert far.scaled == pytest.approx(series.scaled, rel=1e-15, abs=0.0)
        assert near.value == pytest.approx(1.0 - Q1_FROZEN_OFF_DIAGONAL[1e6, 999995.0], rel=1e-9)
        assert far.nodes <= 40 and near.nodes <= 40

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (2.0, 2.0), (1.0, 1e6 * (1 + 1e-15))])
    def test_refuses_the_tie_and_the_range(self, a, b):
        # the tie only: past the old range of 1e6 the rule answers
        if a == b:
            with pytest.raises(DomainError, match="the trapezoid needs b != a"):
                q1_trapezoid(QArgs(a, b))
            return
        res, series = q1_trapezoid(QArgs(a, b)), q1_bessel_series(QArgs(a, b))
        assert res.exponent == series.exponent
        assert res.scaled == pytest.approx(series.scaled, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a,b", [(5.0, 5.001), (5.0, 4.999), (1e3, 1e3 + 1e-9)])
    def test_near_tie_over_the_node_cap(self, a, b):
        # the pole at |Im phi| = ln(1/zeta) nears the real axis: refused before any node
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="over the cap"):
            q1_trapezoid(QArgs(a, b))
        assert time.perf_counter() - start < 0.1


class TestBesselSeries:
    @pytest.mark.parametrize("a,b", sorted(TRAPEZOID_FROZEN))
    def test_frozen_values(self, a, b):
        s, d = TRAPEZOID_FROZEN[a, b]
        res = q1_bessel_series(QArgs(a, b))
        assert res.exponent == d
        assert res.complement is (b < a)
        assert res.scaled == pytest.approx(s, rel=1e-14, abs=0.0)
        assert res.error <= 1e-16 * res.scaled

    @given(st.floats(0.0, 99.9), st.floats(3.72, 2000.0))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_trapezoid_on_the_far_tail(self, a, v):
        b = a / 0.95 + v  # so a/b <= 0.95 and (b - a)^2/2 > ln 1e3
        trap, res = q1_trapezoid(QArgs(a, b)), q1_bessel_series(QArgs(a, b))
        assert res.exponent == trap.exponent
        assert res.scaled == pytest.approx(trap.scaled, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("a", [0.5, 3.0, 40.0, 99.9])
    def test_diagonal_closed_form(self, a):
        # at b = a the b >= a form sums to Q1(a, a) = (1 + i0e(a^2))/2
        res = q1_bessel_series(QArgs(a, a))
        assert (res.exponent, res.complement) == (0.0, False)
        assert res.scaled == pytest.approx(0.5 * (1.0 + oracle.bessel_i0_scaled(a * a)), rel=2e-15, abs=0.0)

    def test_a_zero_is_the_rayleigh_tail(self):
        res = q1_bessel_series(QArgs(0.0, 30.0))
        assert (res.scaled, res.exponent, res.nodes) == (1.0, 450.0, 1)

    def test_complement_at_b_zero_is_zero(self):
        res = q1_bessel_series(QArgs(3.0, 0.0))
        assert res.complement and (res.scaled, res.exponent, res.nodes) == (0.0, 4.5, 0)

    def test_shares_no_code_with_the_trapezoid(self, monkeypatch):
        def no_trapezoid(*args):
            raise AssertionError("trapezoid code called")

        monkeypatch.setattr(oracle, "_simon_terms", no_trapezoid)
        monkeypatch.setattr(oracle, "q1_trapezoid", no_trapezoid)
        for a, b in [(1.0, 30.0), (20.0, 1.0)]:
            q1_bessel_series(QArgs(a, b))

    def test_cost_at_the_deepest_far_tail_point(self):
        # (99.9, 1e6) took the most recurrence steps below a = 100, about
        # 63,000 backward, in about 5 ms; as K^2 <= ab it takes 6 forward,
        # and keeps the 7 ratios r_1 ... r_7 of the forward branch
        start = time.perf_counter()
        res = q1_bessel_series(QArgs(99.9, 1e6))
        assert time.perf_counter() - start < 0.1
        assert res.nodes == 6
        tracemalloc.start()
        try:
            q1_bessel_series(QArgs(99.9, 1e6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_forward_and_backward_recurrences_agree(self):
        # at 300 seeded points below a = 100 where K^2 <= ab, so the ratios
        # come forward, against the same sum with every ratio from backward
        rng = random.Random("forward and backward")
        seen = 0
        while seen < 300:
            a = math.exp(rng.uniform(math.log(1e-3), math.log(100.0)))
            b = min(a * 10.0 ** rng.uniform(-3.0, 6.0), 2.5e8 / a)
            backward, k = _backward_series(a, b)
            if k * k <= a * b:
                seen += 1
                assert q1_bessel_series(QArgs(a, b)).scaled == pytest.approx(backward, rel=1e-15, abs=0.0), (a, b)

    def test_cost_at_the_deepest_backward_point(self):
        # (99.99, 101) takes the most backward steps off b = a below a = 100,
        # 1,033, summed during the recurrence in O(1) memory
        q = QArgs(99.99, 101.0)
        start = time.perf_counter()
        res = q1_bessel_series(q)
        assert time.perf_counter() - start < 0.01
        assert (res.nodes - 1) ** 2 > 99.99 * 101.0  # K^2 > ab: the backward branch
        tracemalloc.start()
        try:
            q1_bessel_series(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024

    def test_horner_sum_agrees_with_fsum(self):
        # at 300 seeded points below a = 100 where K^2 > ab, so the ratios
        # come backward, the Horner sum against fsum of the stored terms
        rng = random.Random("backward horner")
        seen = 0
        while seen < 300:
            a = math.exp(rng.uniform(math.log(1e-3), math.log(100.0)))
            b = min(a * 10.0 ** rng.uniform(-3.0, 6.0), 2.5e8 / a)
            backward, k = _backward_series(a, b)
            if k * k > a * b:
                seen += 1
                assert q1_bessel_series(QArgs(a, b)).scaled == pytest.approx(backward, rel=1e-15, abs=0.0), (a, b)

    @pytest.mark.parametrize("a,b", [(1e5, 1e5), (1e3, 1e6), (15000.0, 15000.0)])
    def test_refuses_past_the_step_cap(self, a, b):
        # on b = a the K terms pass the cap, and sizing stops there; at
        # (1e3, 1e6), once refused, K^2 <= ab and six forward steps answer
        start = time.perf_counter()
        if a == b:
            with pytest.raises(DomainError, match=f"needs over {oracle._BESSEL_MAX_STEPS} recurrence steps at"):
                q1_bessel_series(QArgs(a, b))
        else:
            res, trap = q1_bessel_series(QArgs(a, b)), q1_trapezoid(QArgs(a, b))
            assert res.nodes == 7 and res.exponent == trap.exponent
            assert res.scaled == pytest.approx(trap.scaled, rel=1e-15, abs=0.0)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("a,b", [(3e4, 3e4 + 3.0), (1e6, 1e6 + 3.0), (1e4, 1e4), (1e10, 1e10 + 3.0)])
    def test_refuses_before_the_walk(self, a, b, monkeypatch):
        # a lower bound on K (asinh t <= t) already needs over the cap's
        # steps, so no asinh is taken; each refusal took 8-19 ms, 100,001 asinh
        calls = []
        monkeypatch.setattr(math, "asinh", lambda t, asinh=math.asinh: calls.append(t) or asinh(t))
        message = f"the Bessel series needs over 100000 recurrence steps at (a={a!r}, b={b!r})"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            q1_bessel_series(QArgs(a, b))
        assert calls == []


def _backward_series(a, b):
    """(scaled, K) of q1_bessel_series with every ratio from the backward recurrence."""
    complement = b < a
    lo, hi = (b, a) if complement else (a, b)
    x, zeta, step = a * b, lo / hi, math.log(hi / lo)
    k, depth = 0, 0.0
    while depth < oracle._BESSEL_DEPTH:
        k += 1
        depth += step + math.asinh(k / x)
    ratio, ratios = 0.0, []  # r_K, ..., r_1
    for j in range(math.isqrt(k * k + int(40.0 * x)) + 16, 0, -1):
        ratio = x / (2 * j + x * ratio)
        if j <= k:
            ratios.append(ratio)
    t = oracle.bessel_i0_scaled(x)
    terms = [] if complement else [t]
    for ratio in reversed(ratios):
        t *= zeta * ratio
        terms.append(t)
    return math.fsum(terms) * math.exp(-oracle._split_exponent(lo, hi)[1]), k


def _symmetry_pairs(n: int = 2000):
    """(a, b), b > a: a log-uniform in [1e-3, 100], b - a log-uniform in [1e-3, 60], seed 1."""
    rng = random.Random(1)
    for _ in range(n):
        a = math.exp(rng.uniform(math.log(1e-3), math.log(100.0)))
        yield a, a + math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))


def _symmetry_route(method, res, a: float, b: float) -> str:
    """The route one side of the relation took, for a failure message."""
    form = "1 - Q1" if res.complement else "Q1"
    if method is q1_trapezoid and res.complement:
        form += ", expm1 kernel" if 2.0 * a * b <= oracle._TRAPEZOID_CUT else ", exp kernel"
    return f"{method.__name__}({a!r}, {b!r}): {form}, {res.nodes} nodes"


class TestSymmetryRelation:
    # Q1(a, b) + Q1(b, a) = 1 + e^(-(b - a)^2/2) i0e(ab): for b > a, in the
    # (scaled, exponent) form that both sides share, S(a, b) - S_c(b, a) =
    # i0e(ab) e^-r, r the rounding of the exponent.  No truth is needed.
    # The bound c eps (S + S_c + i0e) starts at this sample's measured
    # worst, rounded up: 1.097 for the trapezoid (1,744 of the 2,000 pairs
    # answer on both sides) and 0.789 for the Bessel series (all 2,000)
    @pytest.mark.parametrize("method,c", [(q1_trapezoid, 1.1), (q1_bessel_series, 0.8)])
    def test_scaled_values_meet_the_relation(self, method, c):
        answered = 0
        for a, b in _symmetry_pairs():
            try:
                s, sc = method(QArgs(a, b)), method(QArgs(b, a))
            except (DomainError, ConvergenceError):
                continue
            answered += 1
            assert not s.complement and sc.complement and s.exponent == sc.exponent, (a, b)
            i0e = oracle.bessel_i0_scaled(a * b)
            miss = (s.scaled - sc.scaled) - i0e * math.exp(-oracle._split_exponent(a, b)[1])
            assert abs(miss) <= c * oracle._EPSILON * (s.scaled + sc.scaled + i0e), (
                f"{_symmetry_route(method, s, a, b)} and {_symmetry_route(method, sc, b, a)} "
                f"miss the symmetry relation by {miss!r}"
            )
        assert answered >= {q1_trapezoid: 1744, q1_bessel_series: 2000}[method]


class TestDiagonal:
    @pytest.mark.parametrize("a,b", sorted(Q1_FROZEN_NEAR_DIAGONAL))
    def test_frozen_values(self, a, b):
        # the quadrature is off by 9.1e-12 at (1e6, 1e6 - 0.1) and 6.8e-13
        # at (3e5, 3e5 + 1e-6); both the route and the reference value
        # are within 1e-15 everywhere here
        expected = Q1_FROZEN_NEAR_DIAGONAL[a, b]
        res = q1_reference(QArgs(a, b))
        assert q1_diagonal(QArgs(a, b)) == res.method_a_value == pytest.approx(expected, rel=0.0, abs=1e-15)
        assert res.value == pytest.approx(expected, rel=0.0, abs=1e-15)
        assert res.method_b == "asymptotic"

    @pytest.mark.parametrize(
        "a,b", [k for k in sorted({**Q1_FROZEN, **Q1_FROZEN_LARGE_A}) if abs(k[1] - k[0]) <= 1.0]
    )
    def test_frozen_values_at_any_a(self, a, b):
        # the route is not limited to a >= 100, though only there is it routed
        expected = {**Q1_FROZEN, **Q1_FROZEN_LARGE_A}[a, b]
        assert q1_diagonal(QArgs(a, b)) == pytest.approx(expected, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("a", [1e-3, 0.5, 20.0, 1e3, 1e6])
    def test_closed_form_on_the_diagonal(self, a, monkeypatch):
        # Q1(a, a) = (1 + i0e(a^2))/2, one Bessel call and no rule
        calls = []
        i0e = oracle.bessel_i0_scaled
        monkeypatch.setattr(oracle, "bessel_i0_scaled", lambda x: calls.append(x) or i0e(x))
        assert q1_diagonal(QArgs(a, a)) == 0.5 * (1.0 + i0e(a * a))
        assert calls == [a * a]

    def test_ten_nodes_off_the_diagonal(self, monkeypatch):
        calls = []
        i0e = oracle.bessel_i0_scaled
        monkeypatch.setattr(oracle, "bessel_i0_scaled", lambda x: calls.append(x) or i0e(x))
        q1_diagonal(QArgs(1e3, 1e3 + 0.5))
        assert len(calls) == 1 + 10

    def test_b_zero_is_one(self):
        assert q1_diagonal(QArgs(0.5, 0.0)) == 1.0
        assert q1_diagonal(QArgs(0.0, 0.0)) == 1.0

    def test_span_limit_is_inclusive(self):
        for b in (999.0, 1001.0):
            assert q1_diagonal(QArgs(1e3, b)) == pytest.approx(q1_asymptotic(QArgs(1e3, b)), abs=1e-15)

    @pytest.mark.parametrize(
        "a,b,message",
        [
            (1e3, math.nextafter(1001.0, math.inf), r"\|b - a\| <= 1"),
            (1e3, 998.5, r"\|b - a\| <= 1"),
            (0.0, 30.0, r"\|b - a\| <= 1"),
            (oracle.MAX_ARG, math.nextafter(oracle.MAX_ARG, 0.0), r"\|b - a\| <= 1"),
            (math.nextafter(oracle.MAX_ARG, math.inf), oracle.MAX_ARG, "^Q1 takes a, b <= sqrt"),
            (1e300, 1e300, "^Q1 takes a, b <= sqrt"),
        ],
    )
    def test_refuses_outside_its_span_and_range(self, a, b, message):
        # the range is QArgs's, and at its end the span is checked as below it
        with pytest.raises(DomainError, match=message):
            q1_diagonal(QArgs(a, b))

    def test_rule_regenerates(self):
        # the node block in oracle.py is exactly what make_gauss_legendre.py prints
        with open(oracle.__file__, encoding="utf-8") as fh:
            source = fh.read()
        with mp.workdps(50):
            assert gauss_legendre_block() in source

    @pytest.mark.parametrize("k", range(20))
    def test_rule_integrates_polynomials_to_degree_19(self, k):
        # int_-1^1 x^k dx to within an ulp of 1: the nodes and weights are
        # doubles, and the rule is exact for these k
        got = math.fsum(w * (x**k + (-x) ** k) for x, w in oracle._GAUSS_LEGENDRE)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert got == pytest.approx(exact, rel=0.0, abs=2.3e-16)


# a log-uniform over [ASYMPTOTIC_MIN_A, 1e6], with b anywhere in
# the range, below 1e-4, where (a - b)^2/2 > 745 (1 - Q1 underflows), or
# just past the diagonal span on either side
_LARGE_A_POINTS = st.floats(math.log(100.0), math.log(1e6)).map(lambda u: min(math.exp(u), 1e6)).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.one_of(
            st.floats(0.0, 1e6),
            st.floats(0.0, 1e-4),
            st.floats(0.0, a - 38.7),
            st.floats(1.0, 1.5).map(lambda d: math.nextafter(a - d, 0.0)),
            st.floats(1.0, 1.5).map(lambda d: min(math.nextafter(a + d, math.inf), 1e6)),
        ),
    )
)

# a < 100 off the band a <= b <= a + 1, ab < 25.  b < a: b = 0, the
# smallest subnormal, anywhere below a, just below a, or within the diagonal
# span's end on either side.  b > a + 1: just past it, anywhere up to
# a + 1e5, or within half a unit past a + 1.  a <= b <= a + 1 with ab >= 25
_OFF_THE_BAND_POINTS = st.floats(5e-324, math.nextafter(100.0, 0.0)).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.one_of(
            st.just(0.0),
            st.just(min(5e-324, math.nextafter(a, 0.0))),
            st.just(math.nextafter(a, 0.0)),
            st.floats(0.0, a, exclude_max=True),
            st.floats(0.5, 1.5).map(lambda d: max(0.0, math.nextafter(a - d, 0.0))),
            st.just(math.nextafter(a + 1.0, math.inf)),
            st.floats(1.0, 1e5).map(lambda d: max(a + d, math.nextafter(a + 1.0, math.inf))),
            st.floats(1.0, 1.5).map(lambda d: max(a + d, math.nextafter(a + 1.0, math.inf))),
            *([st.floats(0.0, 1.0).map(lambda d: a + d)] if a > 4.5 else []),
        ),
    )
).filter(lambda p: not in_the_band(*p))

# every method q1_reference runs
_REFERENCE_METHODS = ("q1_diagonal", "q1_asymptotic", "q1_quadrature", "q1_series", "q1_trapezoid", "q1_bessel_series")


def _off_by(method, eps, calls):
    """``oracle.<method>`` with its value, or its ``scaled``, times 1 + eps; each call is noted in ``calls``."""
    exact = getattr(oracle, method)

    def off(args):
        calls.append(method)
        res = exact(args)
        if isinstance(res, oracle.TrapezoidResult):
            return res._replace(scaled=res.scaled * (1.0 + eps))
        return res * (1.0 + eps)

    return off


def _sweep_points(seed, n):
    """n seeded (a, b), a log-uniform in [1e-3, 1e9] and b on each side in turn.

    b - a is log-uniform in [1e-9, 1] for a third of them (1 in 9 within
    1e-6), in [1, 1e3] for a third, and b/a in [1e-3, 1e3] for the rest.
    """
    rng = random.Random(seed)
    points = []
    for i in range(n):
        a = 10.0 ** rng.uniform(-3.0, 9.0)
        if i % 6 < 2:
            d = 10.0 ** rng.uniform(-9.0, 0.0)
        elif i % 6 < 4:
            d = 10.0 ** rng.uniform(0.0, 3.0)
        else:
            d = a * abs(10.0 ** rng.uniform(-3.0, 3.0) - 1.0)
        points.append((a, a + d if i % 2 else max(a - d, 0.0)))
    return points


def _expansion_edge_points(seed, n):
    """n seeded (a, b) below a = 100 either side of an edge of the expansion's route, or on it.

    In turn: ab = 25 (1 + u) with b - a in [-1, 1]; b = a r with
    (r - 1)^2 = r (1 + u), a in [3.1, 22.2]; b - a = sqrt(1300) (1 + u),
    so d = 650 (1 + u)^2; and b = a, a + 1, a - 1, a near-tie a (1 + u) or
    b - a uniform in [-1, 1], at a = nextafter(100, 0) and at a uniform in
    [5, 100).  u is +-10^-x, x uniform in [2, 15].
    """
    rng = random.Random(seed)
    points = []
    for i in range(n):
        u = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -2.0)
        kind = i % 5
        if kind == 0:
            t = rng.uniform(-1.0, 1.0)
            a = 0.5 * (math.sqrt(t * t + 100.0 * (1.0 + u)) - t)
            b = a + t
        elif kind == 1:
            c = 3.0 + u
            a = rng.uniform(3.1, 22.2)
            b = a * 0.5 * (c + math.sqrt(c * c - 4.0))
        elif kind == 2:
            a = rng.uniform(22.4, 99.99)
            b = a + math.sqrt(1300.0) * (1.0 + u)
        else:
            a = math.nextafter(100.0, 0.0) if kind == 3 else rng.uniform(5.0, 100.0)
            b = rng.choice((a, a + 1.0, a - 1.0, a * (1.0 + u), a + rng.uniform(-1.0, 1.0)))
        points.append((a, b))
    return points


@functools.lru_cache(maxsize=None)
def _fault_points():
    """method -> the seeded points where q1_reference runs it, and a fault in it is in sight of the gate.

    Left out are the points no value gate can see.  One is a method's
    1 - Q1 beside its partner's Q1 (b < a): the trapezoid's beside the
    expansion and the Bessel series' beside the diagonal route.  A fault
    there moves Q1 by eps (1 - Q1), under 1e-12 of Q1 where 1 - Q1 is
    small, until the oracle has complement forms (ROADMAP item 4).  One
    is the "1 - Q1 underflows" route, where method a is 1.0 and no
    trapezoid runs.  The last is where the gated Q1, or the scaled value
    of the trapezoid and the Bessel series, is below _MIN_NORMAL/1e-11,
    as the fault is then below the smallest normal double.
    """
    points = {method: [] for method in _REFERENCE_METHODS}
    for a, b in _sweep_points("fault injection", 1200) + _expansion_edge_points("fault injection", 300):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for method in _REFERENCE_METHODS:
                patch.setattr(oracle, method, _off_by(method, 0.0, calls))
            value = q1_reference(QArgs(a, b)).value
        scaled_pair = {"q1_trapezoid", "q1_bessel_series"} <= set(calls)
        if (q1_trapezoid(QArgs(a, b)).scaled if scaled_pair else value) < oracle._MIN_NORMAL / 1e-11:
            continue
        for method in calls:
            if scaled_pair or b >= a or method not in ("q1_trapezoid", "q1_bessel_series"):
                points[method].append((a, b))
    return points


class TestReference:
    def test_published_value(self):
        res = q1_reference(QArgs(0.1, 1.0))
        assert res.value == pytest.approx(0.60804, abs=1e-5)

    def test_result_fields(self):
        res = q1_reference(QArgs(2.0, 3.0))
        assert res.method_b == "series"
        assert res.agreement_gap == abs(res.method_a_value - res.method_b_value)
        assert res.agreement_gap <= 1e-10
        assert 0.0 <= res.value <= 1.0

    def test_closed_form_a_zero(self):
        for b in (0.1, 1.0, 5.0):
            res = q1_reference(QArgs(0.0, b))
            assert res.value == pytest.approx(math.exp(-b * b / 2), abs=1e-11)

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "q1_series", lambda args: 0.5)
        with pytest.raises(CrossValidationError):
            q1_reference(QArgs(0.1, 1.1))

    def test_disagreement_raises_on_asymptotic_route(self, monkeypatch):
        # every digit of a and b: with :g, (1e6, 1e6 + 3) read as the tie a = b = 1e+06
        monkeypatch.setattr(oracle, "q1_asymptotic", lambda args: 0.5)
        with pytest.raises(CrossValidationError, match=r"at \(a=1000000\.0, b=1000003\.0\): .*asymptotic=0\.5"):
            q1_reference(QArgs(1e6, 1e6 + 3))

    def test_routes_by_a(self, monkeypatch):
        def no_series(args):
            raise AssertionError("series called")

        monkeypatch.setattr(oracle, "q1_series", no_series)
        # from a = 100 on at every b, and below it from ab = 25 on
        for a, b in [(100.0, 99.0), (1e3, 1e3), (1e4, 1e4 + 3), (99.0, 99.0), (5.0, 5.0)]:
            res = q1_reference(QArgs(a, b))
            assert res.method_b == "asymptotic"
            assert res.method_b_value == q1_asymptotic(QArgs(a, b))
        with pytest.raises(AssertionError, match="series called"):
            q1_reference(QArgs(4.9, 4.9))

    @pytest.mark.parametrize("a,b", [(1.0, 30.0), (0.0, 30.0), (2.0, 12.0), (30.0, 67.0), (20.0, 25.0)])
    def test_deep_tail_through_the_trapezoid(self, a, b):
        # (1, 30) was half the truth (the series gives 0.0 and the mean halved
        # it); (20, 25), where (b - a)^2 <= ab, is checked by the expansion
        res = q1_reference(QArgs(a, b))
        assert res.value == res.method_a_value == pytest.approx(_frozen_value(a, b), rel=1e-13, abs=0.0)
        assert res.method_b == ("asymptotic" if on_the_expansion_route(a, b) else "bessel_series")
        assert res.agreement_gap <= 1e-12 * res.value

    def test_far_tail_never_calls_the_quadrature(self, monkeypatch):
        def no_quadrature(args):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(oracle, "q1_quadrature", no_quadrature)
        # the corners of the far tail (b - a just past sqrt(2 ln 1e3) = 3.717,
        # a/b = 0.95, a just below ASYMPTOTIC_MIN_A), and points between it and the band
        points = [(0.0, 3.72), (1.0, 30.0), (2.0, 12.0), (95.0, 100.0), (99.9, 105.2), (1e-300, 40.0),
                  (30.0, 34.0), (30.0, 67.0), (0.0, 3.71), (95.5, 100.0)]
        for a, b in points:
            q1_reference(QArgs(a, b))
        # past a = ASYMPTOTIC_MIN_A the trapezoid takes the far tail too, and
        # the diagonal route the band's points from ab = 25 on
        for a, b in [(100.0, 120.0), (95.5, 96.5), (20.0, 21.0)]:
            q1_reference(QArgs(a, b))
        # only the band a <= b <= a + 1, ab < 25 keeps it
        for a, b in [(0.0, 1.0), (4.0, 5.0)]:
            with pytest.raises(AssertionError, match="quadrature called"):
                q1_reference(QArgs(a, b))

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (2.0, 3.0), (2.0, 2.0), (4.0, 5.0), (4.9, 4.9)])
    def test_outside_the_far_tail_keeps_the_quadrature(self, a, b):
        res = q1_reference(QArgs(a, b))
        assert res.method_a_value == q1_quadrature(QArgs(a, b))
        assert res.value == min(1.0, max(0.0, 0.5 * (res.method_a_value + res.method_b_value)))

    @pytest.mark.parametrize("a,b", [(20.0, 21.0), (50.0, 51.0), (5.0, 5.0), (95.5, 96.5)])
    def test_band_past_ab_25_takes_the_diagonal_route(self, a, b):
        # where the band pair served before: the diagonal route's value,
        # checked by the expansion
        res = q1_reference(QArgs(a, b))
        assert res.value == res.method_a_value == q1_diagonal(QArgs(a, b))
        assert (res.method_b, res.method_b_value) == ("asymptotic", q1_asymptotic(QArgs(a, b)))

    def test_near_diagonal_never_calls_the_quadrature(self, monkeypatch):
        def no_quadrature(args):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(oracle, "q1_quadrature", no_quadrature)
        # a from ASYMPTOTIC_MIN_A to 1e6, b on and either side of
        # the diagonal up to the span's ends
        points = [(100.0, 100.0), (100.0, 99.0), (100.0, 101.0), (1e3, 1e3 + 0.5), (3e4, 29999.25),
                  (3e5, 3e5 + 1e-6), (1e6, 1e6), (1e6, 1e6 - 1.0), *Q1_FROZEN_NEAR_DIAGONAL]
        for a, b in points:
            res = q1_reference(QArgs(a, b))
            assert res.value == res.method_a_value == q1_diagonal(QArgs(a, b))
        for a, bs in [(150.0, [149.0, 149.5, 150.0, 150.5, 151.0]), (1e3, [999.0, 1e3, 1001.0])]:
            for b in bs:
                q1_reference(QArgs(a, b))
        # past the span the trapezoid serves at a >= ASYMPTOTIC_MIN_A
        for a, b in [(1e3, 1e3 + 3), (100.0, 120.0), (1e3, math.nextafter(1001.0, math.inf))]:
            assert q1_reference(QArgs(a, b)).method_a_value == q1_trapezoid(QArgs(a, b)).value
        # below it the diagonal route takes b = a from ab = 25 on
        for a in (99.9, 5.0):
            assert q1_reference(QArgs(a, a)).value == q1_diagonal(QArgs(a, a))
        with pytest.raises(AssertionError, match="quadrature called"):
            q1_reference(QArgs(4.9, 4.9))

    @pytest.mark.parametrize("a,b", [(1e3, 1e3 + 3), (100.0, 120.0), (1e3, 998.5), (1e4, 1e4 - 3)])
    def test_past_the_span_takes_the_trapezoid(self, a, b):
        # method a is the trapezoid's Q1: its value for b > a, 1 - value for b < a
        res = q1_reference(QArgs(a, b))
        t = q1_trapezoid(QArgs(a, b))
        assert res.method_a_value == (1.0 - t.value if b < a else t.value)
        assert res.method_b_value == q1_asymptotic(QArgs(a, b))

    @pytest.mark.parametrize("a,b", sorted(_PAST_THE_SPAN))
    def test_frozen_values_off_the_diagonal(self, a, b):
        # the quadrature was off by 8.6e-4 relative at (1e3, 1010), and by
        # 1.5e-12 absolute at the 3.3e5 point
        expected = _PAST_THE_SPAN[a, b]
        value = q1_reference(QArgs(a, b)).value
        if b > a:
            assert value == pytest.approx(expected, rel=1e-14, abs=0.0)
        else:
            assert value == pytest.approx(expected, rel=0.0, abs=2.5e-16)

    @pytest.mark.parametrize("large_a", [False, True])
    def test_no_disagreement_past_the_span(self, large_a):
        # 3,000 seeded points with a < 100 (trapezoid beside the Bessel
        # series) or a >= 100 (beside the expansion), half each side of b = a
        rng = random.Random(f"past the span {large_a}")
        lo, hi = (math.log(100.0), math.log(1e6)) if large_a else (math.log(1e-3), math.log(100.0))
        for i in range(3000):
            a = math.exp(rng.uniform(lo, hi))
            if i % 2:
                b = min(a + 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(1e3))), 1e6)
            else:
                b = rng.uniform(0.0, max(a - 1.0, 0.0))
            if abs(b - a) > 1.0:
                q1_reference(QArgs(a, b))

    @pytest.mark.parametrize("a,b", sorted(Q1_FROZEN_NEAR_TIE))
    def test_frozen_values_near_the_tie(self, a, b):
        # the mean of the quadrature and the Poisson series was off by up to
        # 6.7e-16 here; from ab = 25 on the expansion checks the diagonal route
        res = q1_reference(QArgs(a, b))
        assert res.method_b == ("asymptotic" if on_the_expansion_route(a, b) else "bessel_series")
        assert res.value == pytest.approx(Q1_FROZEN_NEAR_TIE[a, b], rel=0.0, abs=2.5e-16)

    def test_past_span_table_regenerates(self):
        # the Poisson mixture gives every value that truth.py does, to the bit
        assert mixture.q1_above(Q1_FROZEN_PAST_SPAN) == Q1_FROZEN_PAST_SPAN

    @pytest.mark.parametrize("a,b", sorted(Q1_FROZEN_PAST_SPAN))
    def test_frozen_values_past_the_span(self, a, b):
        # the mean of the quadrature and the Poisson series was off by up to
        # 1.9e-15 here; from ab = 25 on the expansion checks the trapezoid
        res = q1_reference(QArgs(a, b))
        assert res.method_b == ("asymptotic" if on_the_expansion_route(a, b) else "bessel_series")
        assert res.value == pytest.approx(Q1_FROZEN_PAST_SPAN[a, b], rel=1e-15, abs=0.0)

    @given(_OFF_THE_BAND_POINTS)
    @example((2.0, 0.0))
    @example((2.0, 5e-324))
    @example((2.0, math.nextafter(2.0, 0.0)))
    @example((5e-324, 0.0))
    @example((1e-300, 5e-324))
    @example((0.3133, 0.04155))
    @example((math.nextafter(100.0, 0.0), 0.0))
    @example((math.nextafter(100.0, 0.0), math.nextafter(math.nextafter(100.0, 0.0) - 1.0, 0.0)))
    @example((0.0, math.nextafter(1.0, math.inf)))
    @example((1e-300, math.nextafter(1e-300 + 1.0, math.inf)))
    @example((1.0, math.nextafter(2.0, math.inf)))
    @example((math.nextafter(100.0, 0.0), math.nextafter(math.nextafter(100.0, 0.0) + 1.0, math.inf)))
    @example((99.9, 1e6))
    @example((2.0, 1e-158))
    @example((2.0, 2.2e-162))
    @example((9.047370896456613, 4.46917546954652e-160))
    @example((22.421680376217665, 3.0726669037276803e-158))
    @settings(max_examples=300, deadline=None)
    def test_off_the_band_calls_neither_quadrature_nor_series(self, point):
        a, b = point
        called = []

        def count(name):
            return lambda *args: called.append(name)

        with pytest.MonkeyPatch.context() as patch:
            for name in ("q1_quadrature", "q1_series", "rice_pdf"):
                patch.setattr(oracle, name, count(name))
            res = q1_reference(QArgs(a, b))
        assert called == []
        assert res.method_b == ("asymptotic" if on_the_expansion_route(a, b) else "bessel_series")
        assert 0.0 <= res.value <= 1.0

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.0, 0.06), (4.524937810560444, 5.524937810560444)])
    def test_band_calls_quadrature_and_series_once(self, a, b, monkeypatch):
        # the band a <= b <= a + 1, ab < 25, corners included
        called = []
        for name in ("q1_quadrature", "q1_series"):
            method = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda args, name=name, method=method: called.append(name) or method(args))
        res = q1_reference(QArgs(a, b))
        assert sorted(called) == ["q1_quadrature", "q1_series"]
        assert res.method_b == "series"

    @given(_LARGE_A_POINTS)
    @example((100.0, 0.0))
    @example((1e6, 5e-324))
    @example((100.0, 61.3))
    @example((100.0, math.nextafter(99.0, 0.0)))
    @example((1e6 - 1.5, math.nextafter(1e6 - 0.5, math.inf)))
    @settings(max_examples=150, deadline=None)
    def test_large_a_calls_neither_quadrature_nor_series(self, point):
        a, b = point

        def refuse(args):
            raise AssertionError(f"quadrature or series called at (a={a!r}, b={b!r})")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "q1_quadrature", refuse)
            patch.setattr(oracle, "q1_series", refuse)
            res = q1_reference(QArgs(a, b))
        assert 0.0 <= res.value <= 1.0

    def test_disagreement_raises_on_the_diagonal_route(self, monkeypatch):
        monkeypatch.setattr(oracle, "q1_asymptotic", lambda args: 0.5)
        with pytest.raises(CrossValidationError, match="diagonal=.*asymptotic=0.5"):
            q1_reference(QArgs(1e3, 1e3 + 0.5))

    def test_disagreement_raises_on_the_far_tail(self, monkeypatch):
        monkeypatch.setattr(oracle, "q1_bessel_series", lambda args: oracle.TrapezoidResult(0.5, 420.5, False, 1, 0.0))
        with pytest.raises(CrossValidationError, match=r"trapezoid=.*bessel_series=0\.5\*e\^-420\.5"):
            q1_reference(QArgs(1.0, 30.0))

    @pytest.mark.parametrize(
        "a,b,method",
        [
            *(
                (a, b, method)
                for a, b in sorted(
                    {(1.0, 30.0), (2.0, 12.0), (5.0, 15.0), (5.0, 2.0), (20.0, 1.0), (20.0, 55.0), (60.0, 40.0),
                     *PAIRED_FROZEN}
                )
                for method in ("q1_trapezoid", "q1_bessel_series")
            ),
            # on the expansion's route, where the Bessel series does not run
            (5.0, 12.0, "q1_trapezoid"),
            (20.0, 25.0, "q1_trapezoid"),
        ],
    )
    def test_far_tail_gate_catches_a_relative_error(self, a, b, method, monkeypatch):
        # either method off by 1e-11 relative is caught, also where Q1 or
        # 1 - Q1 underflows; the absolute 1e-10 gate let a factor of 2 pass
        # at (1, 30), (2, 12) and (5, 12), and any factor at (20, 1), where
        # 1 - Q1 = 1.87e-81.  At (5, 12) and (20, 25) the trapezoid's partner
        # is the expansion
        exact = getattr(oracle, method)

        def off(args):
            res = exact(args)
            return res._replace(scaled=res.scaled * (1.0 + 1e-11))

        partner = "asymptotic" if on_the_expansion_route(a, b) else "bessel_series"
        assert q1_reference(QArgs(a, b)).method_b == partner
        monkeypatch.setattr(oracle, method, off)
        with pytest.raises(CrossValidationError, match=f"trapezoid=.*{partner}="):
            q1_reference(QArgs(a, b))

    @pytest.mark.parametrize("method", _REFERENCE_METHODS)
    def test_every_route_gate_catches_a_relative_error(self, method):
        # each method off by 1e-11 relative is caught at every seeded point
        # where it runs in sight of the gate (see _fault_points); the absolute
        # 1e-10 gate let it pass at every diagonal and band point
        points = _fault_points()[method]
        assert len(points) >= 50
        if method == "q1_asymptotic":  # the route below a = 100 too
            assert sum(a < oracle.ASYMPTOTIC_MIN_A for a, _ in points) >= 50
        missed = []
        for a, b in points:
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, method, _off_by(method, 1e-11, calls))
                try:
                    q1_reference(QArgs(a, b))
                except CrossValidationError:
                    pass
                else:
                    missed.append((a, b))
            assert calls == [method]
        assert missed == []

    def test_no_false_alarm_in_a_wide_sweep(self):
        # 20,000 seeded points, a log-uniform in [1e-3, 1e9], b on both sides
        # and over 2,000 within 1e-6 of a: the one relative gate raises at
        # none (the worst gap here is 3.6e-15 of Q1, in the band)
        points = _sweep_points("no false alarm", 20_000)
        assert sum(abs(b - a) < 1e-6 for a, b in points) > 2000
        for a, b in points:
            q1_reference(QArgs(a, b))

    def test_expansion_route_edges(self):
        # seeded points either side of each edge of the expansion's route
        # below a = 100 (see _expansion_edge_points): q1_reference takes the
        # route the written-out edges give, and on it the expansion answers
        # and agrees with method a to 1e-14 relative (1.0e-15 at worst here)
        points = _expansion_edge_points("route edges", 2000)
        on = [on_the_expansion_route(a, b) for a, b in points]
        assert sum(on) >= 1000 and len(on) - sum(on) >= 300
        for (a, b), on_route in zip(points, on):
            res = q1_reference(QArgs(a, b))
            if on_route:
                qb = q1_asymptotic(QArgs(a, b))
                assert (res.method_b, res.method_b_value) == ("asymptotic", qb), (a, b)
                assert abs(qb - res.method_a_value) <= 1e-14 * res.method_a_value, (a, b)
            else:
                assert res.method_b in ("series", "bessel_series"), (a, b)

    def test_expansion_route_has_no_fallback(self, monkeypatch):
        # the route's edges alone pick the expansion: where it fails on the
        # route the error reaches the caller, and off it it is never called
        def fail(args):
            raise ConvergenceError("expansion failed")

        monkeypatch.setattr(oracle, "q1_asymptotic", fail)
        for a, b in [(5.0, 5.0), (10.0, 10.5), (99.0, 98.5), (20.0, 25.0), (4.524937810560445, 5.524937810560445)]:
            with pytest.raises(ConvergenceError, match="expansion failed"):
                q1_reference(QArgs(a, b))
        for a, b in [(4.9, 4.9), (4.524937810560444, 5.524937810560444), (50.0, 48.9), (5.0, 15.0), (30.0, 67.0)]:
            assert q1_reference(QArgs(a, b)).method_b in ("series", "bessel_series"), (a, b)

    def test_range_limit_is_inclusive(self):
        limit = oracle.MAX_ARG
        assert q1_reference(QArgs(limit, limit)).value == 0.5
        assert q1_reference(QArgs(1e9, 1e9)).value == pytest.approx(0.5, abs=1e-9)
        above = math.nextafter(limit, math.inf)
        for a, b in [(above, limit), (limit, above), (1e200, 1e200), (1e308, 1e308)]:
            with pytest.raises(DomainError, match=_PAST_THE_RANGE):
                q1_reference(QArgs(a, b))

    @pytest.mark.parametrize(
        "a,b",
        [(1.0, 2e5), (99.9, 1e6), (6.413090578131705, 909503.1455686877), (0.0012150016930201632, 129087.6849875679)],
    )
    def test_answers_where_the_series_windows_are_disjoint(self, a, b):
        # far tail points up to b = 1e6, where the series' windows would be
        # disjoint and far over a million entries: the oracle answers, with
        # values that underflow
        ref = q1_reference(QArgs(a, b))
        assert (ref.value, ref.agreement_gap, ref.method_b) == (0.0, 0.0, "bessel_series")

    def test_large_a_memory_is_constant(self):
        tracemalloc.start()
        try:
            q1_reference(QArgs(1e5, 1e5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_matches_scipy_ncx2(self):
        for (a, b) in [(0.5, 1.5), (2.0, 1.0), (4.0, 5.0), (10.0, 9.0), (20.0, 21.0)]:
            ref = q1_reference(QArgs(a, b)).value
            sv = stats.ncx2.sf(b * b, 2, a * a)
            assert ref == pytest.approx(sv, rel=1e-9, abs=1e-11)

    def test_monotone_in_a_and_b(self):
        margin = 1e-12
        values_b = [q1_reference(QArgs(2.0, b)).value for b in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]]
        assert all(u >= v - margin for u, v in zip(values_b, values_b[1:]))
        values_a = [q1_reference(QArgs(a, 2.0)).value for a in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0]]
        assert all(v >= u - margin for u, v in zip(values_a, values_a[1:]))

    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_methods_agree_everywhere(self, a, b):
        res = q1_reference(QArgs(a, b))
        assert res.agreement_gap <= 1e-10
        assert 0.0 <= res.value <= 1.0

    @given(
        st.floats(min_value=0.1, max_value=25.0),
        st.floats(min_value=0.1, max_value=25.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_everywhere(self, a, b):
        ref = q1_reference(QArgs(a, b)).value
        assert ref == pytest.approx(stats.ncx2.sf(b * b, 2, a * a), rel=2e-9, abs=1e-10)


# the most ulps, |value - truth| / ulp(truth), that q1_reference's value
# is off at the Q1_FROZEN_ROUTES points of each route: the worst measured
# when the table was made.  A budget only tightens
ROUTE_ULP_BUDGET = {
    # the mean of the quadrature and the Poisson series, ab < 25: 15 ulp at
    # (0.0029, 0.049); the 27 at (95.18, 95.39) left the band with ab = 25
    "band": 15,
    "diagonal below 100": 1,
    "diagonal from 100": 1,
    "trapezoid and Bessel series, b > a": 2,
    "trapezoid and Bessel series, b < a": 1,
    "trapezoid and expansion": 2,
    "b < a, 1 - Q1 underflows": 0,
}

# the methods q1_reference calls on each route: one set, or two where
# method b depends on the point (the expansion or the Bessel series)
_ROUTE_CALLS = {
    "band": [{"q1_quadrature", "q1_series"}],
    "diagonal below 100": [{"q1_diagonal", "q1_asymptotic"}, {"q1_diagonal", "q1_bessel_series"}],
    "diagonal from 100": [{"q1_diagonal", "q1_asymptotic"}],
    "trapezoid and Bessel series, b > a": [{"q1_trapezoid", "q1_bessel_series"}],
    "trapezoid and Bessel series, b < a": [{"q1_trapezoid", "q1_bessel_series"}],
    "trapezoid and expansion": [{"q1_trapezoid", "q1_asymptotic"}],
    "b < a, 1 - Q1 underflows": [{"q1_asymptotic"}, {"q1_bessel_series"}],
}


class TestLastDigit:
    @pytest.mark.parametrize("route", list(Q1_FROZEN_ROUTES))
    def test_within_the_route_budget(self, route):
        points = Q1_FROZEN_ROUTES[route]
        ulps = {p: abs(q1_reference(QArgs(*p)).value - q) / math.ulp(q) for p, q in points.items()}
        over = {p: u for p, u in ulps.items() if u > ROUTE_ULP_BUDGET[route]}
        assert over == {}, over

    @pytest.mark.parametrize("route", list(Q1_FROZEN_ROUTES))
    def test_each_table_holds_its_route(self, monkeypatch, route):
        # a table's name is the route q1_reference takes at each of its points
        calls = set()
        for name in set().union(*(c for sets in _ROUTE_CALLS.values() for c in sets)):
            method = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda args, name=name, method=method: calls.add(name) or method(args))
        for a, b in Q1_FROZEN_ROUTES[route]:
            calls.clear()
            q1_reference(QArgs(a, b))
            assert calls in _ROUTE_CALLS[route], (a, b, calls)
            if route.startswith("trapezoid and Bessel series"):
                assert (b > a) == route.endswith("b > a")


_MAX = oracle.MAX_ARG


@pytest.mark.parametrize(
    "method,who,at_limit",
    [
        # the error each method documents at (L, L), (1, L) and (L, 1), L =
        # QArgs's MAX_ARG; the band pair refuses all three, outside its band
        (q1_reference, "the oracle", {}),
        (q1_quadrature, "the quadrature", dict.fromkeys([(_MAX, _MAX), (1.0, _MAX), (_MAX, 1.0)], _OUTSIDE_THE_BAND)),
        (q1_series, "the series", dict.fromkeys([(_MAX, _MAX), (1.0, _MAX), (_MAX, 1.0)], _OUTSIDE_THE_BAND)),
        (q1_asymptotic, "the expansion", {}),
        (q1_trapezoid, "the trapezoid", {(_MAX, _MAX): "needs b != a"}),
        (q1_diagonal, "the diagonal route", {(1.0, _MAX): r"\|b - a\| <= 1", (_MAX, 1.0): r"\|b - a\| <= 1"}),
        (q1_bessel_series, "the Bessel series", {(_MAX, _MAX): "recurrence steps"}),
    ],
)
def test_one_range_for_every_method(method, who, at_limit):
    above = math.nextafter(_MAX, math.inf)
    for a, b in [(_MAX, _MAX), (1.0, _MAX), (_MAX, 1.0)]:
        if (a, b) in at_limit:
            with pytest.raises(DomainError, match=at_limit[a, b]):
                method(QArgs(a, b))
        else:
            assert 0.0 <= _q1_of(method(QArgs(a, b))) <= 1.0
    if method in (q1_quadrature, q1_series):
        # the band's edges: its corners answer
        for a, b in _BAND_EXAMPLES[:4]:
            assert 0.0 <= method(QArgs(a, b)) <= 1.0
    for a, b in [(above, _MAX), (_MAX, above), (above, 0.0), (0.0, above)]:
        # QArgs refuses first, with its one message
        with pytest.raises(DomainError, match=f"{_PAST_THE_RANGE}{re.escape(repr(a))}, b={re.escape(repr(b))}\\)$"):
            method(QArgs(a, b))


@pytest.mark.parametrize("method", [q1_quadrature, q1_series])
def test_band_pair_answers_at_the_corners_and_refuses_past_each_edge(method):
    # the band a <= b <= a + 1, ab < 25 is closed but at ab = 25; at its
    # corners each method gives the value q1_reference pairs
    field = "method_a_value" if method is q1_quadrature else "method_b_value"
    for a, b in _BAND_EXAMPLES[:4]:
        assert method(QArgs(a, b)) == getattr(q1_reference(QArgs(a, b)), field)
    for a in (0.5, 4.0, 99.9):
        _refuses_outside_the_band(method, a, math.nextafter(a, 0.0))
        _refuses_outside_the_band(method, a, math.nextafter(a + 1.0, math.inf))
    for a, b in [(5.0, 5.0), (4.524937810560445, 5.524937810560445), (20.0, 20.5), (100.0, 100.5)]:
        _refuses_outside_the_band(method, a, b)


def _q1_of(result):
    """Q1 from what a method returns: a float, an OracleResult, or a TrapezoidResult."""
    if isinstance(result, oracle.TrapezoidResult):
        return 1.0 - result.value if result.complement else result.value
    return getattr(result, "value", result)


def _huge_q1(a, b):
    """Q1 at a TAILS_FROZEN_HUGE point, from its (S, d)."""
    s, d = TAILS_FROZEN_HUGE[a, b]
    tail = s * math.exp(-d)
    return 1.0 - tail if b < a else tail


class TestPastTheOldRange:
    # the frozen truths past 1e6, where every method but the band pair now answers
    @pytest.mark.parametrize("a,b", sorted(TAILS_FROZEN_HUGE))
    def test_reference(self, a, b):
        assert q1_reference(QArgs(a, b)).value == pytest.approx(_huge_q1(a, b), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a,b", sorted(p for p in TAILS_FROZEN_HUGE if p[0] != p[1]))
    def test_trapezoid(self, a, b):
        # from about a = 1e9 on, 1 + L/ab rounds to 1: alpha = acosh of it was 0.0
        s, d = TAILS_FROZEN_HUGE[a, b]
        res = q1_trapezoid(QArgs(a, b))
        assert res.exponent == d and res.complement is (b < a)
        assert res.scaled == pytest.approx(s, rel=1e-14, abs=0.0)
        assert abs(res.scaled - s) <= res.error

    @pytest.mark.parametrize("a,b", sorted(p for p in TAILS_FROZEN_HUGE if p[0] >= oracle.ASYMPTOTIC_MIN_A))
    def test_asymptotic(self, a, b):
        # erfc and e^-w^2 see w = (b - a)/sqrt(2) with its roundings carried:
        # at w rounded they were 1.2e-13 off at b - a = +30, their slope being 2w^2
        assert q1_asymptotic(QArgs(a, b)) == pytest.approx(_huge_q1(a, b), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a,b", [(50.0, 1e7), (99.9, 1e9), (1e-3, 1e150)])
    def test_bessel_series_forward(self, a, b):
        s, d = TAILS_FROZEN_HUGE[a, b]
        res = q1_bessel_series(QArgs(a, b))
        assert res.exponent == d
        assert res.scaled == pytest.approx(s, rel=1e-14, abs=0.0)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda u: min(max(math.exp(u), lo), hi))


# a log-uniform up to sqrt(DBL_MAX); b log-uniform on its own, within 40 of
# a, at a relative distance 10^-u from it, or a times u
_ONE_RANGE_POINTS = _log_uniform(1e-3, oracle.MAX_ARG).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.one_of(
            _log_uniform(1e-3, oracle.MAX_ARG),
            st.floats(-40.0, 40.0).map(lambda t: a + t),
            st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1.0, 17.0)).map(lambda su: a * (1.0 + su[0] * 10.0 ** -su[1])),
            st.floats(0.0, 4.0).map(lambda u: a * u),
        ).map(lambda b: min(max(b, 0.0), oracle.MAX_ARG)),
    )
)


@given(_ONE_RANGE_POINTS)
@example((oracle.MAX_ARG, oracle.MAX_ARG))
@example((oracle.MAX_ARG, math.nextafter(oracle.MAX_ARG, 0.0)))
@example((oracle.MAX_ARG, oracle.MAX_ARG - 40.0))
@example((0.95 * oracle.MAX_ARG, oracle.MAX_ARG))
@example((1e-3, oracle.MAX_ARG))
@example((oracle.MAX_ARG, 1e-3))
@example((99.99, 101.0))
@example((0.5, 1e20))
@example((1e9, 1e9 + 30.0))
@example((1e12, 1e12 - 30.0))
@settings(max_examples=300, deadline=None)
def test_one_range_answers_everywhere(point):
    # no exception, a value in [0, 1], and under 10 ms a call (the best of
    # three, so that a pause of the host does not count)
    a, b = point
    times = []
    for _ in range(3):
        start = time.perf_counter()
        res = q1_reference(QArgs(a, b))
        times.append(time.perf_counter() - start)
    assert 0.0 <= res.value <= 1.0
    assert min(times) < 0.01, (a, b, times)


def test_one_range_memory():
    # under 64 KiB traced at a seeded sample of the points above, and at the
    # Bessel series' deepest point below a = 100 (K = 795 terms)
    rng = random.Random("one range")
    points = [(99.99, 101.0), (99.99, 98.98)]
    for i in range(60):
        a = math.exp(rng.uniform(math.log(1e-3), math.log(oracle.MAX_ARG)))
        b = [math.exp(rng.uniform(math.log(1e-3), math.log(oracle.MAX_ARG))), a + rng.uniform(-40.0, 40.0),
             a * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1.0, 17.0)), a * rng.uniform(0.0, 4.0)][i % 4]
        points.append((a, min(max(b, 0.0), oracle.MAX_ARG)))
    for a, b in points:
        tracemalloc.start()
        try:
            q1_reference(QArgs(a, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (a, b, peak)


# rice_pdf's one message outside [0, sqrt(DBL_MAX)], up to the point it quotes
_RICE_RANGE = r"^rice_pdf takes x, a in \[0, sqrt\(DBL_MAX\) = 1\.3407807929942596e\+154\], got x="


class TestRicePdf:
    def test_zero_at_origin(self):
        for a in (0.0, 1.0, 17.3):
            assert rice_pdf(0.0, a) == 0.0

    def test_rayleigh_case(self):
        assert rice_pdf(1.0, 0.0) == pytest.approx(0.60653065971263342, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            rice_pdf(-1.0, 2.0)
        with pytest.raises(DomainError):
            rice_pdf(1.0, -2.0)

    @pytest.mark.parametrize(
        "x,a",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
         (0.0, math.inf), (math.inf, 0.0), (0.0, math.nan), (-1.0, math.nan),
         pytest.param(10**400, 1.0, id="10**400-1.0"), pytest.param(1.0, 10**400, id="1.0-10**400")],
    )
    def test_rejects_non_finite_naming_itself(self, x, a):
        with pytest.raises(DomainError, match=_RICE_RANGE):
            rice_pdf(x, a)

    @pytest.mark.parametrize("x", [1.34e154, 1.35e154, 1e200, 1e308, 1.7976931348623157e308])
    def test_peak_either_side_of_the_product_overflowing(self, x):
        # up to x = a = sqrt(DBL_MAX), where a x is the largest double, the
        # density at x = a is 1/sqrt(2 pi); past it, where a x would
        # overflow, rice_pdf refuses, as QArgs does
        assert rice_pdf(min(x, oracle.MAX_ARG), min(x, oracle.MAX_ARG)) == 1.0 / math.sqrt(2.0 * math.pi)
        if x > oracle.MAX_ARG:
            with pytest.raises(DomainError, match=_RICE_RANGE):
                rice_pdf(x, x)

    def test_normalization_a10(self):
        # the integral over [0, a + 40] is the full mass, to within the
        # density's e^-800 left past it
        total = mp.quad(lambda x: rice_pdf(float(x), 10.0), [0, 5, 10, 15, 20, 30, 50])
        assert float(total) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("x,a", [(0.5, 1e200), (1e200, 0.5), (1e300, 1e10), (1e155, 1.0)])
    def test_zero_where_the_square_overflows(self, x, a):
        # (x - a)^2 would overflow a double, past sqrt(DBL_MAX), where
        # rice_pdf refuses; the density is 0 long before, up to the range's end
        assert rice_pdf(min(x, oracle.MAX_ARG), min(a, oracle.MAX_ARG)) == 0.0
        with pytest.raises(DomainError, match=_RICE_RANGE):
            rice_pdf(x, a)

    def test_scaled_form_never_overflows(self):
        v = rice_pdf(600.0, 600.0)
        assert math.isfinite(v)
        assert v == pytest.approx(600.0 / math.sqrt(2 * math.pi * 360000.0), rel=1e-3)
