"""Tests for error tables, certification scans, and figure data."""

import math

import pytest

import marcumq.analysis as analysis
import marcumq.oracle as oracle
from marcumq.analysis import (
    DEFAULT_DOMINANCE_A,
    MAX_GRID_POINTS,
    CurveTable,
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
from marcumq.bounds import BoundId, evaluate
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

    def test_x_must_exceed_b(self):
        with pytest.raises(DomainError):
            scan_shifted_exp_chain(2.0, 3.0, [1.5, 2.5])


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
        calls = []
        zeta = analysis.compute_zeta
        monkeypatch.setattr(analysis, "compute_zeta", lambda args: calls.append(args) or zeta(args))
        rep = scan_envelope_ordering(10.0, 8.0, 200, x_lo=7.0, x_hi=8.0)
        assert calls == [QArgs(10.0, 8.0)]
        monkeypatch.undo()
        pointwise = [envelope_exp_rate(x, 10.0, 8.0) for x in rep.details["x"]]
        assert [v.hex() for v in rep.details["exp_rate_envelope"]] == [v.hex() for v in pointwise]

    def test_zero_where_the_square_overflows(self):
        # (x - a)^2 overflows a double at a = 1e160; every curve is 0 there
        assert envelope_sinh(0.5, 1e160, 1.0) == 0.0
        rep = scan_envelope_ordering(1e160, 1.0, 50)
        assert rep.details["rice_pdf"] == rep.details["sinh_envelope"] == [0.0] * 50

    def test_window_validation(self):
        with pytest.raises(DomainError):
            scan_envelope_ordering(3.0, 4.0, 100)
        with pytest.raises(DomainError):
            scan_envelope_ordering(10.0, 8.0, 100, x_lo=5.0, x_hi=9.0)


class TestSandwichScan:
    def test_quick_grid(self):
        rep = scan_sandwich(a_values=(0.0, 0.5, 2.0, 10.0), b_per_a=12)
        assert rep.passed
        assert rep.worst_violation <= 1e-9
        assert rep.details["checks"] > 300

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


class TestWorst:
    def test_first_maximum_wins_and_nan_never_does(self):
        cands = [(math.nan, ("nan",)), (1.0, ("first",)), (math.nan, ("nan",)), (1.0, ("second",))]
        assert _worst(cands) == (1.0, ("first",))

    def test_empty(self):
        assert _worst([]) == (-math.inf, ())


class TestDominanceScan:
    def test_default_grid_passes(self):
        rep = scan_jp_dominance()
        assert rep.passed
        assert rep.worst_violation < 0.0
        assert rep.details["strict_fraction"] >= 0.99

    def test_families_collapse_at_large_ab(self):
        # past ab ~ 18 the JP-A gap (relative e^(-2ab)) is far below one
        # ulp, so the pairs agree to rounding; that is why the default
        # dominance grid stays small
        assert max(DEFAULT_DOMINANCE_A) <= 2.0
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

    def test_fig4_shares_oracle_work_across_its_sweep(self, monkeypatch):
        # a work count, not a time: the fixed-a sweep must keep sharing
        # panels, at most half the Rice density calls of point calls
        calls = [0]
        pdf = oracle.rice_pdf

        def counted(x, a):
            calls[0] += 1
            return pdf(x, a)

        monkeypatch.setattr(oracle, "rice_pdf", counted)
        rows = figure_data(4).rows
        swept, calls[0] = calls[0], 0
        for b, exact, *_ in rows:
            assert q1_reference(QArgs(1.0, b)).value == exact
        assert 0 < swept <= 0.5 * calls[0]

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
