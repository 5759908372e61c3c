"""Tests for error tables, certification scans, and figure data."""

import math
import random
import tracemalloc

import mpmath as mp
import pytest

import marcumq.analysis as analysis
import marcumq.oracle as oracle
from marcumq.analysis import (
    MAX_GRID_POINTS,
    CurveTable,
    _DOMINANCE_A,
    _worst,
    envelope_exp_rate,
    envelope_sinh,
    error_table,
    figure_data,
    g_plain,
    g_scaled,
    log_grid,
    ratio_exp3,
    ratio_sinh,
    scan_envelope_ordering,
    scan_f_ratio_monotone,
    scan_g_negative,
    scan_jp_dominance,
    scan_sandwich,
    scan_shifted_exp_chain,
    two_sided_b_grid,
)
from marcumq.bounds import BoundId, compute_zeta, evaluate
from marcumq.errors import DomainError, UnknownFigureError
from marcumq.oracle import QArgs, q1_reference, rice_pdf


class TestErrorTable:
    def test_published_first_row(self):
        rows = error_table(0.1, [0.1], [BoundId.UB1JP, BoundId.UB1A])
        row = rows[0]
        assert row.exact == pytest.approx(0.99503, abs=1e-4)
        cell = row.cells[BoundId.UB1JP]
        assert cell.raw == pytest.approx(1.02133, abs=1e-4)
        assert cell.clamped == 1.0
        # eps is computed from the raw value, not the clamped one
        assert cell.epsilon_pct == pytest.approx(2.6423, abs=1e-2)
        assert row.cells[BoundId.UB1A].epsilon_pct == pytest.approx(11.9718, abs=1e-2)

    def test_singular_cell_marked_not_fatal(self):
        rows = error_table(1.0, [1.0, 1.5], [BoundId.UB1B, BoundId.UB1JP])
        assert BoundId.UB1B in rows[0].skipped
        assert BoundId.UB1B not in rows[0].cells
        assert BoundId.UB1JP in rows[0].cells
        assert BoundId.UB1B in rows[1].cells

    def test_rows_in_b_order(self):
        bs = [0.2, 0.5, 0.9]
        rows = error_table(0.1, bs, [BoundId.LB1JP])
        assert [r.b for r in rows] == bs


class TestGScan:
    def test_fig1_window_passes(self):
        rep = scan_g_negative(1.0, 2.0, 1000)
        assert rep.passed
        assert rep.worst_violation < 0.0
        assert rep.witness

    def test_observed_range_on_unit_window(self):
        vals = [g_plain(1.0 + i / 199) for i in range(200)]
        assert -0.35 < min(vals) < max(vals) < -0.03

    def test_limit_at_zero(self):
        # g(0) = e^0 (I1(0) - I0(0)) + 3 I1(0) = -1
        assert g_plain(1e-8) == pytest.approx(-1.0, rel=1e-7)

    def test_extended_scan_passes(self):
        rep = scan_g_negative(1e-3, 700.0, 2000)
        assert rep.passed

    def test_scaled_matches_plain(self):
        for x in (0.5, 5.0, 50.0, 250.0):
            assert g_scaled(x) == pytest.approx(g_plain(x) * math.exp(-2 * x), rel=1e-12)

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            scan_g_negative(-1.0, 2.0, 100)

    @pytest.mark.parametrize("x", [1e16, 1e100, 1e200])
    def test_scaled_keeps_its_sign_at_huge_x(self, x):
        # e^(-2x) g ~ -1/(2x sqrt(2 pi x)); (i1e - i0e) + 3 e^-x i1e
        # cancelled to 0.0 here (5% off at 1e15)
        xm = mp.mpf(x)
        with mp.workdps(50 + int(2 * mp.log10(xm))):
            i0, i1 = mp.besseli(0, xm), mp.besseli(1, xm)
            expected = float((i1 - i0) * mp.exp(-xm) + 3 * i1 * mp.exp(-2 * xm))
        assert g_scaled(x) < 0.0
        assert g_scaled(x) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_scaled_rounds_to_negative_zero_past_the_double_range(self):
        # at 1e300 the value, -2.0e-451, lies below the least subnormal:
        # the double nearest it is -0.0, which no scan can read as negative
        assert math.copysign(1.0, g_scaled(1e300)) == -1.0 and g_scaled(1e300) == 0.0

    def test_scan_past_the_old_cancellation(self):
        rep = scan_g_negative(700.0, 1e200, 5)
        assert rep.passed
        assert rep.witness == (1e200,) and rep.worst_violation == g_scaled(1e200) < 0.0


class TestRatioScans:
    def test_decreasing_kind(self):
        rep = scan_f_ratio_monotone("f_dec_eq2", 0.01, 10.0, 2000)
        assert rep.passed

    def test_increasing_kind_extended(self):
        rep = scan_f_ratio_monotone("f_inc_sinh", 0.01, 700.0, 2000)
        assert rep.passed

    def test_sinh_ratio_limit(self):
        assert ratio_sinh(0.0) == 0.5
        assert ratio_sinh(1e-12) == pytest.approx(0.5, rel=1e-9)

    def test_exp3_ratio_at_zero(self):
        assert ratio_exp3(0.0) == 0.25

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            scan_f_ratio_monotone("f_inc_eq2", 0.1, 1.0, 100)

    def test_repeated_grid_points_raise_not_fail(self):
        # too few doubles in [lo, hi]: repeated x would read as zero differences
        with pytest.raises(DomainError, match="repeats a point"):
            scan_f_ratio_monotone("f_dec_eq2", 1.0, 1.0000000000000004, 10)


class TestChainScan:
    def test_reference_points(self):
        rep = scan_shifted_exp_chain(1.0, 3.0, [1.5, 2.0, 5.0, 10.0])
        assert rep.passed
        assert rep.worst_violation < 0.0

    def test_barely_above_one(self):
        xs = [1.5, 2.0, 5.0]
        rep = scan_shifted_exp_chain(1.0, 1.0001, xs)
        assert rep.passed
        assert rep.worst_violation < 0.0

    def test_middle_link_fails_for_small_b(self):
        # the cosh link of the chain is false below b = asinh(1) ~ 0.881;
        # the scan must report that instead of papering over it
        rep = scan_shifted_exp_chain(0.1, 1.0001, [0.2, 0.5, 1.0, 5.0])
        assert not rep.passed
        assert rep.witness[1] == "one<cosh"

    def test_large_arguments_no_overflow(self):
        # at b = 50 every scaled ratio rounds to 1; exact ties still hold
        rep = scan_shifted_exp_chain(50.0, 3.0, [51.0, 100.0])
        assert rep.passed
        assert rep.worst_violation == 0.0

    def test_m_must_exceed_one(self):
        with pytest.raises(DomainError):
            scan_shifted_exp_chain(1.0, 0.5, [2.0])
        with pytest.raises(DomainError):
            scan_shifted_exp_chain(1.0, 1.0, [2.0])

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_m_must_be_finite(self, m):
        # at m = inf every m<one link is inf/inf = NaN, which _worst never picks, so the scan would pass
        with pytest.raises(DomainError, match=f"^the chain requires finite m > 1, got m={m!r}$"):
            scan_shifted_exp_chain(1.0, m, [2.0])

    def test_x_values_must_not_be_empty(self):
        with pytest.raises(DomainError, match="at least one x value"):
            scan_shifted_exp_chain(1.0, 3.0, [])

    def test_x_must_exceed_b(self):
        with pytest.raises(DomainError):
            scan_shifted_exp_chain(2.0, 3.0, [1.5, 2.5])

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_b_must_be_positive(self, b):
        with pytest.raises(DomainError, match=f"^the chain requires b > 0, got b={b!r}$"):
            scan_shifted_exp_chain(b, 3.0, [2.0])

    def test_message_and_grid_quote_b_exactly(self):
        # b = 1000003 reads 1e+06 in :g form, as if the x given were above it
        with pytest.raises(DomainError, match=r"^all x must exceed b=1000003\.0, got \[1000002\.0\]$"):
            scan_shifted_exp_chain(1000003.0, 2.0, [1000002.0])
        rep = scan_shifted_exp_chain(1000003.0, 2.5, [1000003.5, 1000004.0])
        assert rep.grid == "b=1000003.0, m=2.5, 2 x values in [1000003.5, 1000004.0]"


class TestEnvelopeScan:
    def test_reference_window_passes(self):
        rep = scan_envelope_ordering(10.0, 8.0, 500, x_lo=7.0, x_hi=8.0)
        assert rep.passed
        assert set(rep.details) == {"x", "rice_pdf", "sinh_envelope", "exp_rate_envelope"}
        assert len(rep.details["x"]) == 500

    def test_anchor_point_equality(self):
        # all three curves coincide at x = b
        a, b = 10.0, 8.0
        r = rice_pdf(b, a)
        assert envelope_sinh(b, a, b) == pytest.approx(r, rel=1e-12)
        assert envelope_exp_rate(b, a, b) == pytest.approx(r, rel=1e-12)

    def test_envelopes_dominate_density(self):
        rep = scan_envelope_ordering(4.0, 3.0, 500)
        worst_rice = max(
            r - s for r, s in zip(rep.details["rice_pdf"], rep.details["sinh_envelope"])
        )
        assert worst_rice <= 1e-12

    def test_full_interval_ordering_fails_near_zero(self):
        # the two envelopes swap order left of x ~ 0.48 at (a=4, b=3):
        # their ratio tends to ab I0(ab)/sinh(ab) > 1 as x -> 0.  The scan
        # reports this honestly; the ordering claim holds only near x = b.
        rep = scan_envelope_ordering(4.0, 3.0, 500)
        assert not rep.passed
        assert rep.witness[1] == "sinh<=exp_rate"
        assert 5e-5 < rep.worst_violation < 2e-4
        assert rep.witness[0] < 0.5

    def test_zeta_computed_once_per_scan(self, monkeypatch):
        # zeta enters the exp-rate envelope as its rate below a, eta = a - zeta
        calls = []
        eta = analysis._eta
        monkeypatch.setattr(analysis, "_eta", lambda args: calls.append(args) or eta(args))
        rep = scan_envelope_ordering(10.0, 8.0, 200, x_lo=7.0, x_hi=8.0)
        assert calls == [QArgs(10.0, 8.0)]
        monkeypatch.undo()
        pointwise = [envelope_exp_rate(x, 10.0, 8.0) for x in rep.details["x"]]
        assert [v.hex() for v in rep.details["exp_rate_envelope"]] == [v.hex() for v in pointwise]

    def test_sinh_prefactor_computed_once_per_scan(self, monkeypatch):
        # it does not depend on x; figure 3 takes it through the same scan
        calls = []
        pref = analysis._pref_sinh
        monkeypatch.setattr(analysis, "_pref_sinh", lambda a, b: calls.append((a, b)) or pref(a, b))
        rep = scan_envelope_ordering(10.0, 8.0, 500)
        figure_data(3)
        assert calls == [(10.0, 8.0), (10.0, 8.0)]
        monkeypatch.undo()
        pointwise = [envelope_sinh(x, 10.0, 8.0) for x in rep.details["x"]]
        assert [v.hex() for v in rep.details["sinh_envelope"]] == [v.hex() for v in pointwise]

    def test_zero_where_the_square_overflows(self):
        # (x - a)^2 overflows a double at a = 1e160, where the sinh envelope
        # is 0; zeta refuses a past the catalog's range sqrt(DBL_MAX)
        assert envelope_sinh(0.5, 1e160, 1.0) == 0.0
        for call in (lambda: envelope_exp_rate(0.5, 1e160, 1.0), lambda: scan_envelope_ordering(1e160, 1.0, 50)):
            with pytest.raises(DomainError, match="sqrt\\(DBL_MAX\\)"):
                call()
        # at a = 1e154, in range, every curve underflows to 0, so the scan
        # has nothing to compare and refuses to pass
        assert envelope_exp_rate(0.5, 1e154, 1.0) == 0.0
        with pytest.raises(DomainError, match="cannot be tested on this grid"):
            scan_envelope_ordering(1e154, 1.0, 50)

    @pytest.mark.parametrize(
        "a,b,rel",
        [
            # 50-digit values; the form zeta x - (x^2 + a^2)/2 was off by
            # 4.8e-5, 3.7e-11 and 3.4e-15 here, and 5.3e-16 is this form's worst
            (1e6, 999999.5, 6e-16),
            (1e3, 999.5, 6e-16),
            (10.0, 8.0, 6e-16),
        ],
    )
    def test_exp_rate_keeps_its_digits_at_large_a(self, a, b, rel):
        with mp.workdps(50):
            x, ma = mp.mpf(b), mp.mpf(a)
            truth = x * mp.exp(mp.log(mp.besseli(0, ma * x)) - (x * x + ma * ma) / 2)
        assert envelope_exp_rate(b, a, b) == pytest.approx(float(truth), rel=rel, abs=0.0)

    def test_large_a_ordering_passes(self):
        # all three curves coincide at x = b; the cancelling exponent put
        # the exp-rate envelope 1.7e-5 under the sinh one there
        rep = scan_envelope_ordering(1e6, 999999.5, 3)
        assert rep.passed and rep.worst_violation < 1e-15, rep
        assert rep.grid == "a=1e+06, b=999999.5, 3 points on [0, 999999.5], margin 1e-12"

    @pytest.mark.parametrize(
        "a,b", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-1.0, 1.0), (1.0, math.nan), (1e160, 1.0), (1, True)]
    )
    def test_exp_rate_refuses_what_zeta_refuses(self, a, b):
        def outcome(call):
            try:
                call()
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        expected = outcome(lambda: compute_zeta(QArgs(a, b)))
        assert expected is not None and outcome(lambda: envelope_exp_rate(0.5, a, b)) == expected

    def test_a_few_nonzero_samples_are_enough(self):
        # at a = 39.5, b = 1 only the two samples nearest x = b are nonzero
        rep = scan_envelope_ordering(39.5, 1.0, 50)
        assert sum(1 for v in rep.details["rice_pdf"] if v) == 2
        assert rep.passed

    def test_window_validation(self):
        with pytest.raises(DomainError):
            scan_envelope_ordering(3.0, 4.0, 100)
        with pytest.raises(DomainError):
            scan_envelope_ordering(10.0, 8.0, 100, x_lo=5.0, x_hi=9.0)


class TestSandwichScan:
    def test_quick_grid(self):
        rep = scan_sandwich(b_per_a=12)
        assert rep.passed
        assert rep.worst_violation <= 1e-9
        assert rep.details["checks"] > 300

    def test_worst_default_violation_is_the_quadratures_error(self):
        # the default scan's worst violation, LB1JP at (0, 0.06), is the
        # oracle's: at a = 0 the bound, the series and Q1 = e^(-b^2/2) are
        # one double, and the quadrature below it pulls the mean down
        args = QArgs(0.0, 0.06)
        exact = math.exp(-0.5 * 0.06**2)
        assert evaluate(BoundId.LB1JP, args).clamped == oracle.q1_series(args) == exact
        ref = q1_reference(args)
        assert ref.method_a_value == oracle.q1_quadrature(args) < exact
        assert exact - ref.value == pytest.approx(1.55e-15, rel=0.01)

    def test_grid_builder(self):
        bs = two_sided_b_grid(2.0, 10)
        assert all(b > 0 for b in bs)
        assert any(b < 2.0 for b in bs)
        assert 2.0 in bs
        assert any(b > 2.0 for b in bs)
        assert all(b > 0 for b in two_sided_b_grid(0.0, 10))

    def test_grid_size_capped(self):
        # rejected before any list is built
        for build in (
            lambda n: two_sided_b_grid(2.0, n),
            lambda n: log_grid(1.0, 2.0, n),
            lambda n: scan_envelope_ordering(10.0, 8.0, n),
        ):
            with pytest.raises(DomainError, match=str(MAX_GRID_POINTS)):
                build(MAX_GRID_POINTS + 1)

    @pytest.mark.parametrize("lo,hi", [(1e-3, math.inf), (1e-320, 700.0), (5e-324, 1.0)])
    def test_log_grid_ratio_must_be_finite(self, lo, hi):
        with pytest.raises(DomainError, match=r"log grid .* finite hi/lo"):
            log_grid(lo, hi, 10)

    @pytest.mark.parametrize(
        "lo,hi,n",
        [
            (1.0, 1.0000000000000004, 10),
            (1.0, math.nextafter(1.0, 2.0), 3),
            (1e300, math.nextafter(1e300, math.inf), 2000),
        ],
    )
    def test_log_grid_rejects_repeated_points(self, lo, hi, n):
        with pytest.raises(DomainError, match=rf"log grid .* n={n} repeats a point"):
            log_grid(lo, hi, n)

    def test_log_grid_strictly_increasing(self):
        hi = math.nextafter(1.0, 2.0)
        assert log_grid(1.0, hi, 2) == [1.0, hi]
        # a grid checked point by point, and two whose log step is just
        # past 1e-9, where log_grid stops checking
        for lo, hi, n in [
            (1.0, 1.0 + 64 * 2.0**-52, 32),
            (1.0, math.exp(1.001e-6), 1001),
            (1e-300, 1e-300 * math.exp(1.001e-3), MAX_GRID_POINTS),
        ]:
            xs = log_grid(lo, hi, n)
            assert all(x < y for x, y in zip(xs, xs[1:]))


class TestWorst:
    def test_first_maximum_wins_and_nan_never_does(self):
        cands = [(math.nan, ("nan",)), (1.0, ("first",)), (math.nan, ("nan",)), (1.0, ("second",))]
        assert _worst(cands) == (1.0, ("first",))

    def test_empty(self):
        assert _worst([]) == (-math.inf, ())


def _reference_log_grid(lo, hi, n):
    xs = [lo * math.exp(math.log(hi / lo) * i / (n - 1)) for i in range(n)]
    xs[-1] = hi
    return xs


def _reference_g_scan(xs):
    """The per-point form the one-pass scan replaced."""
    return _worst((g_plain(x) if x <= 300.0 else g_scaled(x), (x,)) for x in xs)


def _reference_f_scan(kind, xs):
    f, sign = (ratio_exp3, -1.0) if kind == "f_dec_eq2" else (ratio_sinh, 1.0)
    vals = [f(x) for x in xs]
    return _worst((-sign * (vals[i + 1] - vals[i]), (xs[i], xs[i + 1])) for i in range(len(xs) - 1))


def _scan_grids():
    # both sides of the kernels' x = 8, g's x = 300 and the Hankel x = 1000,
    # the default grid, n = 2, and seeded log grids
    grids = [
        (7.0, 9.0, 2), (7.0, 9.0, 41), (250.0, 350.0, 2), (250.0, 350.0, 101), (800.0, 1200.0, 33),
        (1e-3, 700.0, 10000), (1e-150, 1e150, 601), (1.0, 2.0, 2),
    ]
    rng = random.Random(35)
    for _ in range(24):
        lo = 10.0 ** rng.uniform(-6.0, 4.0)
        grids.append((lo, lo * 10.0 ** rng.uniform(0.01, 4.0), rng.choice([2, 3, 50, 500])))
    return grids


class TestOnePassScans:
    @pytest.mark.parametrize("lo,hi,n", _scan_grids())
    def test_same_report_as_the_per_point_form(self, lo, hi, n):
        xs = log_grid(lo, hi, n)
        assert [x.hex() for x in xs] == [x.hex() for x in _reference_log_grid(lo, hi, n)]
        reports = [(scan_g_negative(lo, hi, n), _reference_g_scan(xs))] + [
            (scan_f_ratio_monotone(kind, lo, hi, n), _reference_f_scan(kind, xs))
            for kind in ("f_dec_eq2", "f_inc_sinh")
        ]
        for rep, (worst, witness) in reports:
            assert (rep.worst_violation.hex(), rep.witness) == (worst.hex(), witness)

    def test_ties_keep_the_first_and_nan_never_wins(self, monkeypatch):
        # as in _worst: zero Bessel values tie every point at 0.0, so the
        # first point is the witness; NaN ones leave nothing to report
        xs = log_grid(0.5, 5.0, 5)
        scans = [lambda: scan_g_negative(0.5, 5.0, 5)] + [
            lambda kind=kind: scan_f_ratio_monotone(kind, 0.5, 5.0, 5) for kind in ("f_dec_eq2", "f_inc_sinh")
        ]
        for value, worst, witnesses in (
            (0.0, 0.0, [(xs[0],), (xs[0], xs[1]), (xs[0], xs[1])]),
            (math.nan, -math.inf, [(), (), ()]),
        ):
            monkeypatch.setattr(analysis, "_i0e", lambda x: value)
            monkeypatch.setattr(analysis, "_i0e_i1e", lambda x: (value, value))
            reports = [scan() for scan in scans]
            assert [(rep.worst_violation, rep.witness) for rep in reports] == list(zip([worst] * 3, witnesses))

    @pytest.mark.parametrize("kind", ["g_negative", "f_dec_eq2", "f_inc_sinh"])
    def test_memory_stays_flat(self, kind):
        # the default grid is the only full-grid list; the f scans used to
        # keep every ratio too, twice the grid's peak
        def scan():
            if kind == "g_negative":
                return scan_g_negative(1e-3, 700.0, 10000)
            return scan_f_ratio_monotone(kind, 1e-3, 700.0, 10000)

        peaks = []
        for run in (lambda: log_grid(1e-3, 700.0, 10000), scan):
            run()
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        grid, peak = peaks
        assert peak <= grid + 1024


class TestDominanceScan:
    def test_default_grid_passes(self):
        rep = scan_jp_dominance()
        assert rep.passed
        assert rep.worst_violation < 0.0
        assert rep.details["strict_fraction"] >= 0.99

    def test_families_collapse_at_large_ab(self):
        # past ab ~ 18 the JP-A gap (relative e^(-2ab)) is far below one
        # ulp, so the pairs agree to rounding; that is why the dominance
        # grid stays small
        assert max(_DOMINANCE_A) <= 2.0
        args = QArgs(10.0, 12.0)
        assert evaluate(BoundId.UB1JP, args).raw == pytest.approx(
            evaluate(BoundId.UB1A, args).raw, rel=5e-16
        )
        assert evaluate(BoundId.LB1JP, args).raw == pytest.approx(
            evaluate(BoundId.LB1A, args).raw, rel=5e-16
        )


class TestFigureData:
    def test_deterministic(self):
        t1 = figure_data(2)
        t2 = figure_data(2)
        assert t1 == t2

    @pytest.mark.parametrize(
        "figure,ncols",
        [(1, 2), (2, 2), (3, 4), (4, 10), (6, 8), (8, 6), (9, 6), (10, 6)],
    )
    def test_shapes(self, figure, ncols):
        t = figure_data(figure)
        assert isinstance(t, CurveTable)
        assert len(t.columns) == ncols
        assert len(t.rows) == 200
        assert all(len(r) == ncols for r in t.rows)

    def test_fig1_strictly_negative(self):
        t = figure_data(1)
        assert all(v < 0.0 for _, v in t.rows)

    def test_fig8_loose_a_family_tight_jp(self):
        t = figure_data(8)
        ie = t.columns.index("exact")
        ia = t.columns.index("UB1A")
        ij = t.columns.index("UB1JP")
        assert max(r[ia] for r in t.rows) > 1.0
        assert max(abs(r[ij] - r[ie]) / r[ie] for r in t.rows) < 0.03

    def test_fig4_singular_cell_is_nan(self):
        t = figure_data(4)
        iub1b = t.columns.index("UB1B")
        assert t.rows[0][0] == 1.0  # b = a start
        assert math.isnan(t.rows[0][iub1b])
        assert math.isfinite(t.rows[1][iub1b])

    def test_fig4_jp_hugs_exact(self):
        t = figure_data(4)
        ie, iu, il = (t.columns.index(c) for c in ("exact", "UB1JP", "LB1JP"))
        assert max(r[iu] - r[ie] for r in t.rows) < 0.02
        assert max(r[ie] - r[il] for r in t.rows) < 0.1

    def test_fig9_exact_curve_shape(self):
        # interior b < a = 4: exact values sit strictly inside (0, 1) and
        # rise monotonically toward b = 0
        t = figure_data(9)
        ie = t.columns.index("exact")
        exacts = [r[ie] for r in t.rows]
        assert all(0.0 < v < 1.0 for v in exacts)
        assert all(u >= v for u, v in zip(exacts, exacts[1:]))

    @pytest.mark.parametrize("figure", [0, 11, -3])
    def test_unknown_figure(self, figure):
        with pytest.raises(UnknownFigureError):
            figure_data(figure)
