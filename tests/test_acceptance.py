"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line (visible with
pytest -s, and in captured output on failure).

Criterion 8 note: its second grid asserts the envelope ordering on all
of [0, 3] at (a=4, b=3).  That ordering provably reverses left of
x ~ 0.48 (the envelope ratio tends to ab I0(ab)/sinh(ab) > 1 as x -> 0),
so the criterion is implemented exactly as stated and fails honestly;
see test_criterion_08b.
"""

import math
import time

import pytest

from marcumq.analysis import (
    _SANDWICH_A,
    error_table,
    scan_envelope_ordering,
    scan_f_ratio_monotone,
    scan_g_negative,
    scan_jp_dominance,
    scan_sandwich,
    two_sided_b_grid,
)
from marcumq.bounds import BoundId, eval_all, evaluate, lb1jp_small_ab_limit
from marcumq.oracle import QArgs, q1_reference

from frozen_q1 import Q1_FROZEN_ACROSS_TIE
from reference_tables import EPS_TOL, TABLE_V, TABLE_VI, TABLE_VII, TABLE_VIII, VALUE_TOL, lb2a_printed

GRID_A = (0.0, 0.1, 1.0, 2.0, 10.0, 20.0)
B_PER_A = 50


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:>2} ({name}): {'PASS' if ok else 'FAIL'}")


def _check_table(a, golden, id1, id2):
    """Compare an error table against published rows; returns mismatches."""
    bs = sorted(golden)
    rows = error_table(a, bs, [id1, id2])
    bad = []
    for row, b in zip(rows, bs):
        exact, v1, e1, v2, e2 = golden[b]
        for name, got, want, tol in (
            ("exact", row.exact, exact, VALUE_TOL),
            (id1.value, row.cells[id1].raw, v1, VALUE_TOL),
            (f"{id1.value} eps", row.cells[id1].epsilon_pct, e1, EPS_TOL),
            (id2.value, row.cells[id2].raw, v2, VALUE_TOL),
            (f"{id2.value} eps", row.cells[id2].epsilon_pct, e2, EPS_TOL),
        ):
            if abs(got - want) > tol:
                bad.append((b, name, got, want))
    return bad


def test_criterion_01_upper_bounds_small_a():
    t0 = time.perf_counter()
    bad = _check_table(0.1, TABLE_V, BoundId.UB1JP, BoundId.UB1A)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _report(1, "upper-bound table, a=0.1", ok)
    assert not bad, bad
    assert elapsed < 1.0, f"table took {elapsed:.2f}s"


def test_criterion_02_lower_bounds_small_a():
    bad = _check_table(0.1, TABLE_VI, BoundId.LB1JP, BoundId.LB1A)
    _report(2, "lower-bound table, a=0.1", not bad)
    assert not bad, bad


def test_criterion_03_upper_bounds_a2():
    bad = _check_table(2.0, TABLE_VII, BoundId.UB2JP, BoundId.UB2A)
    _report(3, "upper-bound table, a=2", not bad)
    assert not bad, bad


def test_criterion_04_lower_bounds_a20_fixes_lb2a():
    bad = _check_table(20.0, TABLE_VIII, BoundId.LB2JP, BoundId.LB2A)
    # LB2A as printed must fail to reproduce the data:
    # above 1 at the first rows, far from every published value
    literal_top = lb2a_printed(20.0, 19.1)
    literal_off = all(
        abs(lb2a_printed(20.0, b) - golden[3])
        > 1e-3
        for b, golden in TABLE_VIII.items()
    )
    ok = not bad and literal_top > 1.0 and literal_off
    _report(4, "lower-bound table, a=20 + LB2A transcription", ok)
    assert not bad, bad
    assert literal_top > 1.0
    assert literal_off


def test_criterion_05_oracle_self_consistency():
    # the two methods q1_reference runs at each point, whichever its route
    worst_gap = 0.0
    for a in GRID_A:
        for b in two_sided_b_grid(a, B_PER_A):
            worst_gap = max(worst_gap, q1_reference(QArgs(a, b)).agreement_gap)
    worst_form = 0.0
    # both method values on either side of the tie, against the 50-digit
    # truth (within 3e-15 here)
    for (a, b), expected in Q1_FROZEN_ACROSS_TIE.items():
        ref = q1_reference(QArgs(a, b))
        worst_form = max(worst_form, abs(ref.method_a_value - expected), abs(ref.method_b_value - expected))
    ok = worst_gap <= 1e-10 and worst_form <= 1e-10
    _report(5, f"oracle self-consistency (gaps {worst_gap:.2e}, {worst_form:.2e})", ok)
    assert worst_gap <= 1e-10
    assert worst_form <= 1e-10


def test_criterion_06_sandwich():
    # the scan's own a grid holds GRID_A and a = 4
    assert set(GRID_A) < set(_SANDWICH_A)
    rep = scan_sandwich(b_per_a=B_PER_A)
    passed = rep.passed
    _report(6, f"sandwich (worst {rep.worst_violation:.2e} at {rep.witness})", passed)
    assert passed, (rep.worst_violation, rep.witness)


def test_criterion_07_jp_dominance():
    rep = scan_jp_dominance()
    frac = rep.details["strict_fraction"]
    ok = rep.passed and frac >= 0.99
    _report(7, f"JP dominance (strict at {100 * frac:.1f}%)", ok)
    assert rep.passed, rep
    assert frac >= 0.99


def test_criterion_08a_envelope_reference_window():
    rep = scan_envelope_ordering(10.0, 8.0, 500, x_lo=7.0, x_hi=8.0)
    passed = rep.passed
    _report(8, "envelope ordering on [7, 8], a=10 b=8", passed)
    assert passed, (rep.worst_violation, rep.witness)


def test_criterion_08b_envelope_full_interval():
    # stated grid: 500 points of [0, 3] at a=4, b=3.  The ordering between
    # the two envelopes genuinely reverses for x < ~0.48 (violation ~8e-5),
    # so this criterion cannot pass; it is asserted as stated regardless.
    rep = scan_envelope_ordering(4.0, 3.0, 500)
    passed = rep.passed
    _report(8, f"envelope ordering on [0, 3], a=4 b=3 (worst {rep.worst_violation:.2e})", passed)
    assert passed, (
        "envelope ordering fails left of the crossover at x ~ 0.48: "
        f"worst violation {rep.worst_violation:.3e} at x={rep.witness[0]:.4f}"
    )


def test_criterion_09_monotonicity_certificates():
    g = scan_g_negative(1e-3, 700.0, 10000)
    dec = scan_f_ratio_monotone("f_dec_eq2", 1e-3, 700.0, 10000)
    inc = scan_f_ratio_monotone("f_inc_sinh", 1e-3, 700.0, 10000)
    ok = g.passed and dec.passed and inc.passed
    _report(9, "monotonicity certificates (g, both ratios)", ok)
    assert g.passed, g
    assert dec.passed, dec
    assert inc.passed, inc


def test_criterion_10_limit_behavior():
    worst_oracle = max(
        abs(q1_reference(QArgs(0.0, b)).value - math.exp(-b * b / 2)) for b in (0.1, 1.0, 5.0)
    )
    worst_limit = 0.0
    for b in (0.5, 1.0, 2.0, 5.0):
        direct = evaluate(BoundId.LB1JP, QArgs(1e-6, b)).raw
        limit = lb1jp_small_ab_limit(1e-6, b)
        worst_limit = max(worst_limit, abs(direct - limit) / limit)
    ok = worst_oracle <= 1e-11 and worst_limit <= 1e-8
    _report(10, f"limits (oracle {worst_oracle:.2e}, branch {worst_limit:.2e})", ok)
    assert worst_oracle <= 1e-11
    assert worst_limit <= 1e-8


def test_criterion_11_scaled_form_stress():
    ok = True
    for a, b in ((600.0, 599.0), (600.0, 601.0)):
        assert a * b > 709.0, "stress point must exceed the plain e^(ab) overflow"
        res = q1_reference(QArgs(a, b))
        assert math.isfinite(res.value)
        evals, _ = eval_all(QArgs(a, b))
        jp = {ev.id: ev for ev in evals if ev.id.value.endswith("JP")}
        assert len(jp) == 2
        for ev in jp.values():
            assert math.isfinite(ev.raw)
            if ev.side == "upper":
                ok &= ev.clamped >= res.value - 1e-9
            else:
                ok &= ev.clamped <= res.value + 1e-9
    _report(11, "scaled-form stress at (600, 599) and (600, 601)", ok)
    assert ok
