"""Error tables, figure curve data, and numeric certification scans.

The error tables compare every requested bound against the
cross-validated oracle and report tightness as a percentage,
eps = 100 |raw - exact| / exact.  The raw (unclamped) formula value is
used there so that looseness past 1.0 stays visible; the clamped value
is reported alongside.

The scan operations certify, on explicit grids, the monotonicity and
ordering facts the bound derivations rest on: negativity of
g(x) = e^x (I1 - I0) + 3 I1, monotonicity of the two I0 ratio
functions, the shifted-exponential ratio chain, the Rice density
envelope ordering, the bound sandwich against the oracle, and the
dominance of the JP bounds over the A family.  Each scan returns a
ScanReport recording its grid, worst violation, and witness so failures
are reproducible.  Grids are fixed by their parameters, so everything
here is deterministic; point evaluations are independent of each other.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple

from .bounds import BoundId, compute_zeta, eval_all, eval_ids
from .errors import DomainError, UnknownFigureError, _exact
from .oracle import QArgs, _new_record, q1_reference, rice_pdf
from .specfun import _HANKEL_X, _i0e, _i0e_i1e, _i0e_minus_i1e_hankel, bessel_i0_scaled, bessel_i1_scaled

# above this, e^x (I1(x) - I0(x)) would overflow e^(2x); use the scaled form
_G_PLAIN_MAX = 300.0

# largest grid any table, figure or scan builds; bigger requests fail
# before allocating instead of exhausting memory
MAX_GRID_POINTS = 1_000_000

# the a values of the sandwich scan and, below, of the dominance scan
_SANDWICH_A = (0.0, 0.1, 1.0, 2.0, 4.0, 10.0, 20.0)
# Dominance is certifiable in doubles only while the JP-A gap is
# representable: the lower-bound pair differs by a relative e^(-2ab), so
# past ab ~ 18 the two families round to the same double and every point
# is a tie (a = 0 degenerates the same way at any b).
_DOMINANCE_A = (0.1, 0.5, 1.0, 2.0)

# the default of the mapping fields below: read-only, so no caller can fill one shared dict
_EMPTY = MappingProxyType({})


class BoundCell(NamedTuple):
    """One bound column of an error-table row."""

    raw: float
    clamped: float
    epsilon_pct: float


class ErrorRow(NamedTuple):
    b: float
    exact: float
    cells: dict[BoundId, BoundCell]
    skipped: Mapping[BoundId, str] = _EMPTY


class ScanReport(NamedTuple):
    """Outcome of one property scan over a documented grid."""

    property_id: str
    grid: str
    worst_violation: float
    witness: tuple
    passed: bool
    details: Mapping = _EMPTY


class CurveTable(NamedTuple):
    """Plottable curve data: named columns and float rows."""

    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]


def _check_grid_size(n: int) -> None:
    if n < 2:
        raise DomainError(f"grid needs n >= 2, got {n}")
    if n > MAX_GRID_POINTS:
        raise DomainError(f"grid needs n <= {MAX_GRID_POINTS}, got {n}")


def _lin_grid(lo: float, hi: float, n: int) -> list[float]:
    _check_grid_size(n)
    step = (hi - lo) / (n - 1)
    xs = [lo + i * step for i in range(n)]
    xs[-1] = hi
    return xs


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    if not (0.0 < lo < hi):
        raise DomainError(f"log grid needs 0 < lo < hi, got [{lo!r}, {hi!r}]")
    _check_grid_size(n)
    ratio = hi / lo
    if math.isinf(ratio):
        raise DomainError(f"log grid [{lo!r}, {hi!r}] needs a finite hi/lo, got {ratio!r}")
    lr = math.log(ratio)
    exp, m = math.exp, n - 1
    xs = [lo * exp(lr * i / m) for i in range(n)]
    xs[-1] = hi
    # [lo, hi] may hold fewer than n doubles, and a repeated x would read
    # as a zero difference in the monotonicity scans.  Each point is off by
    # under 1e-12 relative for any finite ratio, so only a step below 1e-9
    # can round away; coarser grids skip the pass over the points.
    if lr < 1e-9 * m and any(x >= y for x, y in zip(xs, xs[1:])):
        raise DomainError(
            f"log grid [{lo!r}, {hi!r}] with n={n} repeats a point: too few doubles between lo and hi"
        )
    return xs


def two_sided_b_grid(a: float, n: int) -> list[float]:
    """n thresholds straddling a: half in (0, a), half in [a, a + span].

    For a = 0 the grid spreads over (0, 3].  The tie point b = a is
    included so singular-at-the-tie formulas get exercised.
    """
    _check_grid_size(n)
    if a == 0.0:
        return [3.0 * (i + 1) / n for i in range(n)]
    k = n // 2
    below = [a * (i + 1) / (k + 1) for i in range(k)]
    span = max(3.0, 0.5 * a)
    above = [a + span * i / max(1, n - k - 1) for i in range(n - k)]
    return below + above


def _check_two_sided_size(a_values: Sequence[float], b_per_a: int) -> None:
    """The bound on a two-sided scan's whole grid, at most MAX_GRID_POINTS
    points, checked before any point is evaluated."""
    total = len(a_values) * b_per_a
    if total > MAX_GRID_POINTS:
        raise DomainError(
            f"grid needs at most {MAX_GRID_POINTS} points, got {len(a_values)} a x {b_per_a} b = {total}"
        )


def eps_pct(raw: float, exact: float) -> float:
    """Tightness 100 |raw - exact| / exact in percent; inf when exact <= 0."""
    return 100.0 * abs(raw - exact) / exact if exact > 0.0 else math.inf


def error_table(a: float, b_values: list[float], ids: Sequence[BoundId]) -> list[ErrorRow]:
    """Oracle-vs-bounds comparison rows, one per threshold b.

    Regime or singularity failures of individual ids mark the cell as
    skipped; they never abort the table.
    """
    rows = []
    for b in b_values:
        args = QArgs(a, b)
        exact = q1_reference(args).value
        evals, skipped = eval_ids(ids, args)
        cells = {
            bid: _new_record(BoundCell, (raw, clamped, eps_pct(raw, exact))) for bid, raw, clamped, _ in evals
        }
        rows.append(_new_record(ErrorRow, (b, exact, cells, skipped)))
    return rows


def _worst(candidates: Iterable[tuple[float, tuple]]) -> tuple[float, tuple]:
    """First maximal (violation, witness) pair; (-inf, ()) when empty.

    Ties keep the earlier witness and a NaN violation never wins.
    """
    worst = -math.inf
    witness: tuple = ()
    for v, w in candidates:
        if v > worst:
            worst, witness = v, w
    return worst, witness


def g_plain(x: float) -> float:
    """g(x) = e^x (I1(x) - I0(x)) + 3 I1(x) for 0 <= x <= 300.

    I0 and I1 are e^x times the scaled kernels; e^(2x) stays finite here.
    """
    ex = math.exp(x)
    i1 = ex * bessel_i1_scaled(x)
    return ex * (i1 - ex * bessel_i0_scaled(x)) + 3.0 * i1


def g_scaled(x: float) -> float:
    """e^(-2x) g(x): same sign as g, finite for all x >= 0.

    From x = 1000, i1e - i0e comes from its own Hankel kernel, which does
    not cancel, and 3 e^-x i1e underflows to 0.0; past x ~ 1.2e215 the
    value itself, about -0.2 x^-1.5, rounds to -0.0.
    """
    i1 = bessel_i1_scaled(x)  # refuses x outside [0, DBL_MAX]
    if x >= _HANKEL_X:
        return -_i0e_minus_i1e_hankel(x)
    return (i1 - bessel_i0_scaled(x)) + 3.0 * math.exp(-x) * i1


def scan_g_negative(x_lo: float, x_hi: float, n: int) -> ScanReport:
    """Certify g(x) < 0 on a log-spaced grid.

    Negativity of g is what makes I0(x)/(e^x + 3) decreasing, the fact
    the (e^x + 3)-ratio upper bounds rest on.  Values are plain g below
    x = 300 and e^(-2x)-scaled beyond (sign-preserving).
    """
    xs = log_grid(x_lo, x_hi, n)
    exp = math.exp
    # g_plain and g_scaled written out, in their order of operations, so
    # each value is the same double; the worst is tracked as _worst does
    worst, at = -math.inf, -1
    for i, x in enumerate(xs):
        if x <= _G_PLAIN_MAX:
            i0, i1 = _i0e_i1e(x)
            ex = exp(x)
            i1 = ex * i1
            v = ex * (i1 - ex * i0) + 3.0 * i1
        elif x < _HANKEL_X:
            i0, i1 = _i0e_i1e(x)
            v = (i1 - i0) + 3.0 * exp(-x) * i1
        else:
            v = -_i0e_minus_i1e_hankel(x)
        if v > worst:
            worst, at = v, i
    witness = (xs[at],) if at >= 0 else ()
    return ScanReport(
        property_id="g_negative",
        grid=f"log-spaced x in [{_exact(x_lo)}, {_exact(x_hi)}], n={n}; plain g below x=300, e^(-2x)-scaled beyond",
        worst_violation=worst,
        witness=witness,
        passed=worst < 0.0,
    )


def ratio_exp3(x: float) -> float:
    """I0(x) / (e^x + 3) in scaled form; decreasing on x > 0."""
    return bessel_i0_scaled(x) / (1.0 + 3.0 * math.exp(-x))


def _pref_sinh(a: float, b: float) -> float:
    """b I0(ab) / (e^ab - e^-ab) in scaled form, stable down to ab -> 0."""
    ab = a * b
    return b * bessel_i0_scaled(ab) / (-math.expm1(-2.0 * ab))


def ratio_sinh(x: float) -> float:
    """x I0(x) / (e^x - e^-x); increasing on x > 0, limit 1/2 at x -> 0."""
    if x == 0.0:
        return 0.5
    return _pref_sinh(1.0, x)


def scan_f_ratio_monotone(kind: str, x_lo: float, x_hi: float, n: int) -> ScanReport:
    """Certify monotonicity of one of the two I0 ratio functions.

    kind "f_dec_eq2" checks I0(x)/(e^x + 3) strictly decreasing;
    kind "f_inc_sinh" checks x I0(x)/(e^x - e^-x) strictly increasing.
    Successive differences on a log-spaced grid must all have the
    required sign.
    """
    if kind not in ("f_dec_eq2", "f_inc_sinh"):
        raise DomainError(f"unknown ratio kind {kind!r}")
    xs = log_grid(x_lo, x_hi, n)
    # ratio_exp3 and ratio_sinh written out, in their order of operations;
    # a log grid holds no x = 0, ratio_sinh's special case
    if kind == "f_dec_eq2":
        exp, sign = math.exp, -1.0
        vals = (_i0e(x) / (1.0 + 3.0 * exp(-x)) for x in xs)
    else:
        expm1, sign = math.expm1, 1.0
        vals = (x * _i0e(x) / (-expm1(-2.0 * x)) for x in xs)
    # violation: difference with the wrong sign; the worst is tracked as _worst does
    worst, at = -math.inf, -1
    prev = next(vals)
    for i, v in enumerate(vals):
        d = -sign * (v - prev)
        if d > worst:
            worst, at = d, i
        prev = v
    witness = (xs[at], xs[at + 1]) if at >= 0 else ()
    return ScanReport(
        property_id=kind,
        grid=f"log-spaced x in [{_exact(x_lo)}, {_exact(x_hi)}], n={n}; successive differences",
        worst_violation=worst,
        witness=witness,
        passed=worst < 0.0,
    )


def scan_shifted_exp_chain(b: float, m: float, x_values: list[float]) -> ScanReport:
    """Check the ratio chain between shifted exponentials for x > b:

        e^x/e^b > (e^x+e^-x)/(e^b+e^-b) > (e^x+1)/(e^b+1) > (e^x+m)/(e^b+m)

    for finite m > 1.  All four ratios are divided through by e^(x-b), so the
    comparison is overflow-free at any magnitude; for very large b the
    ratios round to exact ties, which count as holding.  The outer links
    are provable; the middle (cosh) link genuinely fails for
    b < asinh(1) ~ 0.881, and the scan reports such violations as found.
    """
    if not 1.0 < m < math.inf:  # at m = inf every m<one link is inf/inf = NaN
        raise DomainError(f"the chain requires finite m > 1, got m={m!r}")
    if not b > 0.0:
        raise DomainError(f"the chain requires b > 0, got b={b!r}")
    if not x_values:
        raise DomainError("the chain needs at least one x value, got none")
    bad = [x for x in x_values if not x > b]
    if bad:
        raise DomainError(f"all x must exceed b={_exact(b)}, got {bad[:3]}")
    eb, e2b = math.exp(-b), math.exp(-2.0 * b)

    def links():
        for x in x_values:
            ex, e2x = math.exp(-x), math.exp(-2.0 * x)
            r_cosh = (1.0 + e2x) / (1.0 + e2b)
            r_one = (1.0 + ex) / (1.0 + eb)
            r_m = (1.0 + m * ex) / (1.0 + m * eb)
            yield r_cosh - 1.0, (x, "cosh<plain")
            yield r_one - r_cosh, (x, "one<cosh")
            yield r_m - r_one, (x, "m<one")

    worst, witness = _worst(links())
    return ScanReport(
        property_id="chain_eq6",
        grid=(
            f"b={_exact(b)}, m={_exact(m)}, {len(x_values)} x values "
            f"in [{_exact(min(x_values))}, {_exact(max(x_values))}]"
        ),
        worst_violation=worst,
        witness=witness,
        passed=worst <= 0.0,
    )


def envelope_sinh(x: float, a: float, b: float) -> float:
    """Rice density envelope from the sinh-ratio I0 approximation:

        b I0(ab)/(e^ab - e^-ab) [e^(-(x-a)^2/2) - e^(-(x+a)^2/2)].
    """
    try:
        g = math.exp(-0.5 * (x - a) ** 2)
    except OverflowError:  # (x - a)^2 > 1.8e308: the envelope underflowed long before
        return 0.0
    return _pref_sinh(a, b) * g * (-math.expm1(-2.0 * a * x))


def _sinh_at(x: float, a: float, pref: float) -> float:
    """``envelope_sinh(x, a, b)`` given its x-free factor pref = ``_pref_sinh(a, b)``.

    Its one caller keeps 0 <= x <= b < a <= sqrt(DBL_MAX), so (x - a)^2 <= a^2 stays finite.
    """
    return pref * math.exp(-0.5 * (x - a) ** 2) * (-math.expm1(-2.0 * a * x))


def envelope_exp_rate(x: float, a: float, b: float) -> float:
    """Rice density envelope with exponential rate zeta = log(I0(ab))/b:

        x exp(zeta x - (x^2 + a^2)/2) = x exp(-(x - a)^2/2 - eta x),

    with eta = a - zeta = -log(i0e(ab))/b.  The first exponent is a
    difference of terms of size a^2 and cancels at large a (4.8e-5
    relative at x = b = a - 0.5, a = 1e6); the second has none.  It
    refuses what ``compute_zeta`` refuses.
    """
    return _exp_rate_at(x, a, _eta(QArgs(a, b)))


def _eta(args: QArgs) -> float:
    """a - zeta = -log(i0e(ab))/b, the exp-rate envelope's rate below a."""
    a, b = args
    if a <= 0.0 or b <= 0.0:
        compute_zeta(args)  # raises its DomainError
    return -math.log(_i0e(a * b)) / b


def _exp_rate_at(x: float, a: float, eta: float) -> float:
    d = x - a
    return x * math.exp(-0.5 * d * d - eta * x)


def scan_envelope_ordering(
    a: float,
    b: float,
    n: int,
    x_lo: float | None = None,
    x_hi: float | None = None,
) -> ScanReport:
    """Certify R(x) <= sinh envelope <= exp-rate envelope on [x_lo, x_hi].

    The window defaults to [0, b], where both envelopes are valid; all
    three curves coincide at x = b, so ordering is checked with a 1e-12
    absolute margin.  The sampled curves ride along in ``details`` for
    plotting.  When all three curves are 0.0 at every sample (they
    underflow for huge a), nothing can be compared and DomainError is
    raised rather than a vacuous pass.
    """
    if not (0.0 < b < a):
        raise DomainError(f"envelope scan requires 0 < b < a, got (a={a!r}, b={b!r})")
    lo = 0.0 if x_lo is None else x_lo
    hi = b if x_hi is None else x_hi
    if not (0.0 <= lo < hi <= b):
        raise DomainError(f"window [{lo!r}, {hi!r}] must lie inside [0, b]")
    margin = 1e-12
    eta = _eta(QArgs(a, b))  # QArgs refuses a, b past the range before the density is sampled
    xs = _lin_grid(lo, hi, n)
    rice = [rice_pdf(x, a) for x in xs]
    pref = _pref_sinh(a, b)
    e_sinh = [_sinh_at(x, a, pref) for x in xs]
    e_rate = [_exp_rate_at(x, a, eta) for x in xs]
    if not any(rice) and not any(e_sinh) and not any(e_rate):
        raise DomainError(
            f"envelope ordering cannot be tested on this grid: the density and both envelopes "
            f"are 0.0 at all {n} points of [{lo!r}, {hi!r}] (a={a!r}, b={b!r})"
        )
    worst, witness = _worst(
        (v, (x, label))
        for x, r, s, t in zip(xs, rice, e_sinh, e_rate)
        for label, v in (("rice<=sinh", r - s), ("sinh<=exp_rate", s - t))
    )
    return ScanReport(
        property_id="envelope",
        grid=f"a={_exact(a)}, b={_exact(b)}, {n} points on [{_exact(lo)}, {_exact(hi)}], margin {margin:g}",
        worst_violation=worst,
        witness=witness,
        passed=worst <= margin,
        details={"x": xs, "rice_pdf": rice, "sinh_envelope": e_sinh, "exp_rate_envelope": e_rate},
    )


def scan_sandwich(b_per_a: int = 50) -> ScanReport:
    """Certify clamped lower <= oracle <= clamped upper for every bound,
    to a 1e-9 absolute margin.

    The grid is b_per_a two-sided b values at each a of _SANDWICH_A.
    Every applicable id is checked at every grid point; singular ids at
    the tie b = a are skipped by eval_all.  Checks stream into the
    verdict, so memory stays flat in the grid size.
    """
    margin = 1e-9
    count = 0
    _check_two_sided_size(_SANDWICH_A, b_per_a)
    # the worst is tracked as _worst does, its witness built only at a new worst
    worst, witness = -math.inf, ()
    for a in _SANDWICH_A:
        bs = two_sided_b_grid(a, b_per_a)
        for b in bs:
            args = QArgs(a, b)
            exact = q1_reference(args).value
            evals, _ = eval_all(args)
            count += len(evals)
            for bid, _, clamped, side in evals:
                v = (exact - clamped) if side == "upper" else (clamped - exact)
                if v > worst:
                    worst, witness = v, (bid.value, a, b)
        del bs  # freed before the next a's grid is built
    return ScanReport(
        property_id="sandwich",
        grid=f"a in {_SANDWICH_A}, {b_per_a} b per a (two-sided), margin {margin:g}",
        worst_violation=worst,
        witness=witness,
        passed=worst <= margin,
        details={"checks": count},
    )


_DOMINANCE_GE = (BoundId.UB1JP, BoundId.UB1A, BoundId.LB1JP, BoundId.LB1A)
_DOMINANCE_LT = (BoundId.UB2JP, BoundId.UB2A)


def _jp_dominance_pairs(a: float, b: float) -> tuple[tuple[str, float], ...]:
    """(label, violation) of each JP-over-A check at one point; a check
    holds strictly where its violation is negative."""
    if b >= a:
        ub_jp, ub_a, lb_jp, lb_a = (ev.raw for ev in eval_ids(_DOMINANCE_GE, QArgs(a, b))[0])
        return ("UB1JP<=UB1A", ub_jp - ub_a), ("LB1JP>=LB1A", lb_a - lb_jp)
    ub_jp, ub_a = (ev.raw for ev in eval_ids(_DOMINANCE_LT, QArgs(a, b))[0])
    return (("UB2JP<=UB2A", ub_jp - ub_a),)


def scan_jp_dominance(b_per_a: int = 50) -> ScanReport:
    """Certify the JP bounds dominate the A family on raw values:

    UB1JP <= UB1A and LB1JP >= LB1A wherever b >= a, UB2JP <= UB2A
    wherever b < a; strict at 99% of points or more, at b_per_a
    two-sided b values for each a of _DOMINANCE_A.  That grid keeps ab
    small enough that the dominance gap stays above double rounding;
    beyond that the families agree to within a couple ulp (a fact test
    suites assert separately).
    """
    total = strict = 0

    def checks():
        nonlocal total, strict
        _check_two_sided_size(_DOMINANCE_A, b_per_a)
        for a in _DOMINANCE_A:
            for b in two_sided_b_grid(a, b_per_a):
                for label, v in _jp_dominance_pairs(a, b):
                    total += 1
                    strict += v < 0.0
                    yield v, (label, a, b)

    worst, witness = _worst(checks())
    frac = strict / total  # the grid holds four a and at least two b per a
    return ScanReport(
        property_id="jp_dominance",
        grid=(
            f"a in {_DOMINANCE_A}, {b_per_a} b per a (two-sided); "
            "a chosen so the JP-A gap exceeds double rounding"
        ),
        worst_violation=worst,
        witness=witness,
        passed=(worst <= 0.0) and (frac >= 0.99),
        details={"strict_fraction": frac, "checks": total},
    )


def _fig_envelopes() -> CurveTable:
    rep = scan_envelope_ordering(10.0, 8.0, 200, x_lo=7.0, x_hi=8.0)
    d = rep.details
    cols = ("x", "rice_pdf", "sinh_envelope", "exp_rate_envelope")
    rows = list(zip(d["x"], d["rice_pdf"], d["sinh_envelope"], d["exp_rate_envelope"]))
    return CurveTable(cols, rows)


def _fig_bounds(a: float, bs: list[float], ids: tuple[BoundId, ...]) -> CurveTable:
    cols = ("b", "exact") + tuple(i.value for i in ids)
    rows = [
        (row.b, row.exact, *(row.cells[bid].raw if bid in row.cells else math.nan for bid in ids))
        for row in error_table(a, bs, ids)
    ]
    return CurveTable(cols, rows)


def _interior_grid(a: float, n: int) -> list[float]:
    return [a * (i + 1) / (n + 1) for i in range(n)]


_JP_BCD_GE = (BoundId.UB1JP, BoundId.LB1JP, BoundId.UB1B, BoundId.LB1B,
              BoundId.UB1C, BoundId.LB1C, BoundId.UB1D, BoundId.LB1D)
_JP_BCD_LT = (BoundId.UB2JP, BoundId.LB2JP, BoundId.LB2B, BoundId.LB2C,
              BoundId.UB2D, BoundId.LB2D)
_JP_A_GE = (BoundId.UB1JP, BoundId.LB1JP, BoundId.UB1A, BoundId.LB1A)
_JP_A_LT = (BoundId.UB2JP, BoundId.LB2JP, BoundId.UB2A, BoundId.LB2A)

# figure id -> the builder of its curve table
_FIGURES = {
    1: lambda: CurveTable(("x", "g"), [(x, g_plain(x)) for x in _lin_grid(1.0, 2.0, 200)]),
    2: lambda: CurveTable(("x", "f"), [(x, ratio_exp3(x)) for x in _lin_grid(0.0, 10.0, 200)]),
    3: _fig_envelopes,
    4: lambda: _fig_bounds(1.0, _lin_grid(1.0, 6.0, 200), _JP_BCD_GE),
    5: lambda: _fig_bounds(10.0, _lin_grid(10.0, 15.0, 200), _JP_BCD_GE),
    6: lambda: _fig_bounds(1.0, _interior_grid(1.0, 200), _JP_BCD_LT),
    7: lambda: _fig_bounds(10.0, _interior_grid(10.0, 200), _JP_BCD_LT),
    8: lambda: _fig_bounds(0.1, _lin_grid(0.1, 3.0, 200), _JP_A_GE),
    9: lambda: _fig_bounds(4.0, _interior_grid(4.0, 200), _JP_A_LT),
    10: lambda: _fig_bounds(2.0, _interior_grid(2.0, 200), _JP_A_LT),
}


def figure_data(figure: int) -> CurveTable:
    """Curve data for one of the ten predefined figure configurations.

    1: g(x) on [1, 2];  2: I0(x)/(e^x+3) on [0, 10];
    3: Rice density and both envelopes on [7, 8] at a=10, b=8;
    4-7: exact Q1 with the JP/B/C/D bounds, at (a=1, b >= a),
         (a=10, b >= a), (a=1, b < a), (a=10, b < a);
    8-10: exact Q1 with the JP/A bounds, at (a=0.1, b >= a),
          (a=4, b < a), (a=2, b < a).

    Raw (unclamped) bound values are emitted; cells where a formula is
    singular are NaN.  Output is deterministic: fixed 200-point grids.
    """
    try:
        build = _FIGURES[figure]
    except (KeyError, TypeError):  # TypeError: an unhashable id, which no preset equals
        raise UnknownFigureError(f"no figure preset {figure!r}; valid ids are 1..10") from None
    return build()
