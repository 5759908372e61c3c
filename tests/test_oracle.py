"""Tests for the cross-validated Marcum Q oracle.

Frozen values come from 50-digit mpmath quadrature of the defining
integral (``make_frozen_large_a.py`` regenerates the large-argument
set); scipy's noncentral chi-square survival function provides an
independent implementation for cross-checks (Q1(a, b) is the survival
of ncx2(df=2, nc=a^2) at b^2).
"""

import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import marcumq.oracle as oracle
from marcumq.errors import ConvergenceError, CrossValidationError, DomainError
from marcumq.oracle import (
    QArgs,
    _adaptive_quad,
    q1_asymptotic,
    q1_quadrature,
    q1_reference,
    q1_series,
    rice_pdf,
)

# mpmath (50 dps) references
Q1_FROZEN = {
    (0.0, 1.5): 0.32465246735834973,
    (0.1, 0.5): 0.88304717244316724,
    (0.1, 1.0): 0.60804414666879398,
    (2.0, 1.0): 0.918107696369406,
    (20.0, 20.0): 0.50997667814096999,
    (0.0, 3.0): 0.011108996538242306,
    (1.0, 2.0): 0.26901206003591,
    (10.0, 8.0): 0.98010420964205033,
    (4.0, 3.0): 0.87410388337202941,
    (0.5, 0.5): 0.89550858106985968,
    (3.0, 0.5): 0.99830023270553937,
    (600.0, 599.0): 0.84154647249682223,
    (600.0, 601.0): 0.15885681232410255,
}

# mpmath (50 dps) references at large a, from make_frozen_large_a.py
Q1_FROZEN_LARGE_A = {
    (600.0, 599.0): 0.8415464724968222,
    (600.0, 601.0): 0.15885681232410254,
    (1000.0, 997.0): 0.9986523195572946,
    (1000.0, 1000.0): 0.5001994711651346,
    (10000.0, 10003.0): 0.0013501196074340292,
    (30000.0, 29997.0): 0.9986501758343568,
    (100000.0, 100000.0): 0.500001994711402,
}


class TestQArgs:
    def test_accepts_zero(self):
        QArgs(0.0, 0.0)

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_bad_args(self, a, b):
        with pytest.raises(DomainError):
            QArgs(a, b)

    @pytest.mark.parametrize("a,b", [(True, 1.0), (1.0, False)])
    def test_rejects_bools(self, a, b):
        with pytest.raises(DomainError):
            QArgs(a, b)


class TestQuadrature:
    @pytest.mark.parametrize("pair,expected", sorted(Q1_FROZEN.items()))
    def test_frozen_values(self, pair, expected):
        assert q1_quadrature(QArgs(*pair)) == pytest.approx(expected, abs=1e-12)

    def test_closed_form_a_zero(self):
        assert q1_quadrature(QArgs(0.0, 1.5)) == pytest.approx(math.exp(-1.125), abs=1e-13)

    def test_full_mass_b_zero(self):
        assert q1_quadrature(QArgs(3.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_forms_agree_across_tie(self):
        for a in (0.1, 1.0, 2.0, 10.0, 20.0):
            for db in (-0.1, -0.01, 0.0, 0.01, 0.1):
                b = a + db
                args = QArgs(a, b)
                t = q1_quadrature(args, form="tail")
                c = q1_quadrature(args, form="complement")
                assert t == pytest.approx(c, abs=1e-10)

    def test_unknown_form(self):
        with pytest.raises(DomainError):
            q1_quadrature(QArgs(1.0, 1.0), form="midpoint")

    def test_budget_exhaustion_raises(self):
        # highly oscillatory integrand with a tiny panel budget
        with pytest.raises(ConvergenceError):
            _adaptive_quad(lambda x: math.sin(1000.0 * x * x), 0.0, 10.0, 1e-12, max_panels=4)


def _series_closure_form(a: float, b: float) -> float:
    """q1_series with its running Poisson CDF summed through a Neumaier
    closure in two loops, as it was written before the sum was inlined:
    the reference for bit-identical results."""
    lam, y = a * a / 2.0, b * b / 2.0
    if lam == 0.0:
        return math.exp(-y)
    if y == 0.0:
        return 1.0
    klo, khi, p, pmass, _, _ = oracle._poisson_window(lam)
    jlo, jhi, q, qmass, _, _ = oracle._poisson_window(y)
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


class TestSeries:
    @pytest.mark.parametrize("pair,expected", sorted(Q1_FROZEN.items()))
    def test_frozen_values(self, pair, expected):
        assert q1_series(QArgs(*pair)) == pytest.approx(expected, abs=1e-12)

    def test_empty_lower_tail(self):
        assert q1_series(QArgs(0.0, 0.0)) == 1.0

    @pytest.mark.parametrize("a", [0.05, 0.5, 2.0, 4.0, 20.0, 60.0])
    @pytest.mark.parametrize("b", [0.1, 1.0, 3.0, 19.1, 30.0, 70.0])
    def test_bit_identical_to_closure_form(self, a, b):
        assert q1_series(QArgs(a, b)) == _series_closure_form(a, b)


    def test_published_spot_values(self):
        assert q1_series(QArgs(2.0, 1.0)) == pytest.approx(0.91810, abs=1e-4)
        assert q1_series(QArgs(20.0, 20.0)) == pytest.approx(0.50997, abs=1e-4)

    def test_window_cap_raises_before_allocating(self):
        # an uncapped window here would hold ~1.7e8 entries (gigabytes)
        start = time.perf_counter()
        with pytest.raises(DomainError, match=str(oracle.MAX_SERIES_WINDOW)):
            q1_series(QArgs(1e7, 1e7))
        assert time.perf_counter() - start < 1.0


class TestAsymptotic:
    @pytest.mark.parametrize("pair,expected", sorted(Q1_FROZEN_LARGE_A.items()))
    def test_frozen_values(self, pair, expected):
        assert q1_asymptotic(QArgs(*pair)) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("a,b", [(1e4, 0.05), (100.0, 9.9), (100.0, 1e-3)])
    def test_complement_underflow_is_exactly_one(self, a, b):
        assert q1_asymptotic(QArgs(a, b)) == 1.0
        assert q1_reference(QArgs(a, b)).value == 1.0

    def test_edges_match_series(self):
        assert q1_asymptotic(QArgs(150.0, 0.0)) == 1.0
        assert q1_asymptotic(QArgs(0.0, 1.5)) == q1_series(QArgs(0.0, 1.5))

    def test_agrees_with_series(self):
        for a in (100.0, 173.0, 300.0, 450.0, 600.0):
            for db in (-40.0, -10.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 10.0, 40.0):
                args = QArgs(a, a + db)
                assert q1_asymptotic(args) == pytest.approx(q1_series(args), abs=1e-13)

    def test_outside_domain_raises(self):
        # at xi = ab = 1 the terms grow before reaching double precision
        with pytest.raises(ConvergenceError):
            q1_asymptotic(QArgs(1.0, 1.0))

    def test_overflowing_xi_raises(self):
        # ab = inf gives NaN terms, which no growth test would ever stop
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="nan"):
            q1_asymptotic(QArgs(1e200, 1e200))
        assert time.perf_counter() - start < 1.0


class TestReference:
    def test_published_value(self):
        res = q1_reference(QArgs(0.1, 1.0))
        assert res.value == pytest.approx(0.60804, abs=1e-5)

    def test_result_fields(self):
        res = q1_reference(QArgs(2.0, 1.0))
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
            q1_reference(QArgs(0.1, 2.0))

    def test_disagreement_raises_on_asymptotic_route(self, monkeypatch):
        monkeypatch.setattr(oracle, "q1_asymptotic", lambda args: 0.5)
        with pytest.raises(CrossValidationError, match="asymptotic"):
            q1_reference(QArgs(1e3, 1e3 + 3))

    def test_routes_by_a(self, monkeypatch):
        def no_series(args):
            raise AssertionError("series called")

        monkeypatch.setattr(oracle, "q1_series", no_series)
        for a, b in [(100.0, 99.0), (1e3, 1e3), (1e4, 1e4 + 3)]:
            res = q1_reference(QArgs(a, b))
            assert res.method_b == "asymptotic"
            assert res.method_b_value == q1_asymptotic(QArgs(a, b))
        with pytest.raises(AssertionError, match="series called"):
            q1_reference(QArgs(99.0, 99.0))

    def test_range_limit_is_inclusive(self):
        limit = oracle.MAX_ORACLE_ARG
        assert q1_reference(QArgs(limit, limit)).value == pytest.approx(0.5, abs=1e-5)
        above = math.nextafter(limit, math.inf)
        for a, b in [(above, limit), (limit, above), (1e9, 1e9), (1e308, 1e308)]:
            with pytest.raises(DomainError, match="oracle covers"):
                q1_reference(QArgs(a, b))

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

    def test_normalization_a10(self):
        # integral over [0, a+40] is the full mass
        total = q1_quadrature(QArgs(10.0, 0.0), form="tail")
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_scaled_form_never_overflows(self):
        v = rice_pdf(600.0, 600.0)
        assert math.isfinite(v)
        assert v == pytest.approx(600.0 / math.sqrt(2 * math.pi * 360000.0), rel=1e-3)
