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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .bounds import BoundId, _pref_exp3 as ratio_exp3, _pref_sinh, compute_zeta, eval_all, evaluate
from .errors import DomainError, RegimeError, SingularityError, UnknownFigureError
# q1_reference is not called here since the oracle work goes through
# q1_sweep, but it stays bound: perfbench/tests checks that the tracer
# wraps this module's binding of it
from .oracle import OracleResult, QArgs, q1_reference, q1_sweep, rice_pdf  # noqa: F401
from .specfun import bessel_i0_scaled, bessel_i1_scaled

# above this, e^x (I1(x) - I0(x)) would overflow e^(2x); use the scaled form
_G_PLAIN_MAX = 300.0

# largest grid any table, figure or scan builds; bigger requests fail
# before allocating instead of exhausting memory
MAX_GRID_POINTS = 1_000_000

DEFAULT_SANDWICH_A = (0.0, 0.1, 1.0, 2.0, 4.0, 10.0, 20.0)
# Dominance is certifiable in doubles only while the JP-A gap is
# representable: the lower-bound pair differs by a relative e^(-2ab), so
# past ab ~ 18 the two families round to the same double and every point
# is a tie (a = 0 degenerates the same way at any b).
DEFAULT_DOMINANCE_A = (0.1, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class BoundCell:
    """One bound column of an error-table row."""

    raw: float
    clamped: float
    epsilon_pct: float


@dataclass(frozen=True)
class ErrorRow:
    b: float
    exact: float
    cells: dict[BoundId, BoundCell]
    skipped: dict[BoundId, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one property scan over a documented grid."""

    property_id: str
    grid: str
    worst_violation: float
    witness: tuple
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CurveTable:
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
    xs = [lo * math.exp(lr * i / (n - 1)) for i in range(n)]
    xs[-1] = hi
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
    """The cap on a two-sided scan's whole grid, checked before any point
    is evaluated."""
    total = len(a_values) * b_per_a
    if total > MAX_GRID_POINTS:
        raise DomainError(
            f"grid needs at most {MAX_GRID_POINTS} points, got {len(a_values)} a x {b_per_a} b = {total}"
        )


def _swept(a: float, b_values: list[float]) -> Iterator[tuple[float, OracleResult]]:
    """(b, q1_reference(QArgs(a, b))) for each b, through one fixed-a sweep."""
    return zip(b_values, q1_sweep(a, b_values))


def eps_pct(raw: float, exact: float) -> float:
    """Tightness 100 |raw - exact| / exact in percent; inf when exact <= 0."""
    return 100.0 * abs(raw - exact) / exact if exact > 0.0 else math.inf


def error_table(a: float, b_values: list[float], ids: Sequence[BoundId]) -> list[ErrorRow]:
    """Oracle-vs-bounds comparison rows, one per threshold b.

    Regime or singularity failures of individual ids mark the cell as
    skipped; they never abort the table.
    """
    rows = []
    for b, ref in _swept(a, b_values):
        args = QArgs(a, b)
        exact = ref.value
        cells: dict[BoundId, BoundCell] = {}
        skipped: dict[BoundId, str] = {}
        for bid in ids:
            try:
                ev = evaluate(bid, args)
            except (RegimeError, SingularityError) as exc:
                skipped[bid] = str(exc)
                continue
            cells[bid] = BoundCell(raw=ev.raw, clamped=ev.clamped, epsilon_pct=eps_pct(ev.raw, exact))
        rows.append(ErrorRow(b=b, exact=exact, cells=cells, skipped=skipped))
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
    """e^(-2x) g(x): same sign as g, finite for all x >= 0."""
    return (bessel_i1_scaled(x) - bessel_i0_scaled(x)) + 3.0 * math.exp(-x) * bessel_i1_scaled(x)


def scan_g_negative(x_lo: float, x_hi: float, n: int) -> ScanReport:
    """Certify g(x) < 0 on a log-spaced grid.

    Negativity of g is what makes I0(x)/(e^x + 3) decreasing, the fact
    the (e^x + 3)-ratio upper bounds rest on.  Values are plain g below
    x = 300 and e^(-2x)-scaled beyond (sign-preserving).
    """
    worst, witness = _worst(
        (g_plain(x) if x <= _G_PLAIN_MAX else g_scaled(x), (x,)) for x in log_grid(x_lo, x_hi, n)
    )
    return ScanReport(
        property_id="g_negative",
        grid=f"log-spaced x in [{x_lo:g}, {x_hi:g}], n={n}; plain g below x=300, e^(-2x)-scaled beyond",
        worst_violation=worst,
        witness=witness,
        passed=worst < 0.0,
    )


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
    if kind == "f_dec_eq2":
        f, sign = ratio_exp3, -1.0
    elif kind == "f_inc_sinh":
        f, sign = ratio_sinh, 1.0
    else:
        raise DomainError(f"unknown ratio kind {kind!r}")
    xs = log_grid(x_lo, x_hi, n)
    vals = [f(x) for x in xs]
    # violation: difference with the wrong sign
    worst, witness = _worst(
        (-sign * (vals[i + 1] - vals[i]), (xs[i], xs[i + 1])) for i in range(len(xs) - 1)
    )
    return ScanReport(
        property_id=kind,
        grid=f"log-spaced x in [{x_lo:g}, {x_hi:g}], n={n}; successive differences",
        worst_violation=worst,
        witness=witness,
        passed=worst < 0.0,
    )


def scan_shifted_exp_chain(b: float, m: float, x_values: list[float]) -> ScanReport:
    """Check the ratio chain between shifted exponentials for x > b:

        e^x/e^b > (e^x+e^-x)/(e^b+e^-b) > (e^x+1)/(e^b+1) > (e^x+m)/(e^b+m)

    for m > 1.  All four ratios are divided through by e^(x-b), so the
    comparison is overflow-free at any magnitude; for very large b the
    ratios round to exact ties, which count as holding.  The outer links
    are provable; the middle (cosh) link genuinely fails for
    b < asinh(1) ~ 0.881, and the scan reports such violations as found.
    """
    if not m > 1.0:
        raise DomainError(f"the chain requires m > 1, got m={m!r}")
    if not b > 0.0:
        raise DomainError(f"the chain requires b > 0, got b={b!r}")
    bad = [x for x in x_values if not x > b]
    if bad:
        raise DomainError(f"all x must exceed b={b:g}, got {bad[:3]}")
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
        grid=f"b={b:g}, m={m:g}, {len(x_values)} x values in [{min(x_values):g}, {max(x_values):g}]",
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


def envelope_exp_rate(x: float, a: float, b: float) -> float:
    """Rice density envelope with exponential rate zeta = log(I0(ab))/b:

        x exp(zeta x - (x^2 + a^2)/2).
    """
    return _exp_rate_at(x, a, compute_zeta(QArgs(a, b)))


def _exp_rate_at(x: float, a: float, zeta: float) -> float:
    return x * math.exp(zeta * x - 0.5 * (x * x + a * a))


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
    plotting.
    """
    if not (0.0 < b < a):
        raise DomainError(f"envelope scan requires 0 < b < a, got (a={a!r}, b={b!r})")
    lo = 0.0 if x_lo is None else x_lo
    hi = b if x_hi is None else x_hi
    if not (0.0 <= lo < hi <= b):
        raise DomainError(f"window [{lo!r}, {hi!r}] must lie inside [0, b]")
    margin = 1e-12
    xs = _lin_grid(lo, hi, n)
    rice = [rice_pdf(x, a) for x in xs]
    e_sinh = [envelope_sinh(x, a, b) for x in xs]
    zeta = compute_zeta(QArgs(a, b))
    e_rate = [_exp_rate_at(x, a, zeta) for x in xs]
    worst, witness = _worst(
        (v, (x, label))
        for x, r, s, t in zip(xs, rice, e_sinh, e_rate)
        for label, v in (("rice<=sinh", r - s), ("sinh<=exp_rate", s - t))
    )
    return ScanReport(
        property_id="envelope",
        grid=f"a={a:g}, b={b:g}, {n} points on [{lo:g}, {hi:g}], margin {margin:g}",
        worst_violation=worst,
        witness=witness,
        passed=worst <= margin,
        details={"x": xs, "rice_pdf": rice, "sinh_envelope": e_sinh, "exp_rate_envelope": e_rate},
    )


def scan_sandwich(
    a_values: tuple[float, ...] = DEFAULT_SANDWICH_A,
    b_per_a: int = 50,
    margin: float = 1e-9,
) -> ScanReport:
    """Certify clamped lower <= oracle <= clamped upper for every bound.

    Every applicable id is checked at every grid point; singular ids at
    the tie b = a are skipped by eval_all.  Checks stream into the
    verdict, so memory stays flat in the grid size.
    """
    count = 0

    def checks():
        nonlocal count
        _check_two_sided_size(a_values, b_per_a)
        for a in a_values:
            # the grid is built inline so it is freed before the next a's
            for b, ref in _swept(a, two_sided_b_grid(a, b_per_a)):
                exact = ref.value
                evals, _ = eval_all(QArgs(a, b))
                count += len(evals)
                for ev in evals:
                    v = (exact - ev.clamped) if ev.side == "upper" else (ev.clamped - exact)
                    yield v, (ev.id.value, a, b)

    worst, witness = _worst(checks())
    return ScanReport(
        property_id="sandwich",
        grid=f"a in {tuple(a_values)}, {b_per_a} b per a (two-sided), margin {margin:g}",
        worst_violation=worst,
        witness=witness,
        passed=worst <= margin,
        details={"checks": count},
    )


def scan_jp_dominance(
    a_values: tuple[float, ...] = DEFAULT_DOMINANCE_A,
    b_per_a: int = 50,
) -> ScanReport:
    """Certify the JP bounds dominate the A family on raw values:

    UB1JP <= UB1A and LB1JP >= LB1A wherever b >= a, UB2JP <= UB2A
    wherever b < a; strict at 99% of points or more.  The default grid
    keeps ab small enough that the dominance gap stays above double
    rounding; beyond that the families agree to within a couple ulp
    (a fact test suites assert separately).
    """
    total = strict = 0

    def checks():
        nonlocal total, strict
        _check_two_sided_size(a_values, b_per_a)
        for a in a_values:
            for b in two_sided_b_grid(a, b_per_a):
                args = QArgs(a, b)
                if b >= a:
                    pairs = (
                        ("UB1JP<=UB1A", evaluate(BoundId.UB1JP, args).raw - evaluate(BoundId.UB1A, args).raw),
                        ("LB1JP>=LB1A", evaluate(BoundId.LB1A, args).raw - evaluate(BoundId.LB1JP, args).raw),
                    )
                else:
                    pairs = (
                        ("UB2JP<=UB2A", evaluate(BoundId.UB2JP, args).raw - evaluate(BoundId.UB2A, args).raw),
                    )
                for label, v in pairs:
                    total += 1
                    strict += v < 0.0
                    yield v, (label, a, b)

    worst, witness = _worst(checks())
    frac = strict / total if total else 0.0
    return ScanReport(
        property_id="jp_dominance",
        grid=(
            f"a in {tuple(a_values)}, {b_per_a} b per a (two-sided); "
            "a chosen so the JP-A gap exceeds double rounding"
        ),
        worst_violation=worst,
        witness=witness,
        passed=(worst <= 0.0) and (frac >= 0.99),
        details={"strict_fraction": frac, "checks": total},
    )


def _fig_ratio(figure: int) -> CurveTable:
    if figure == 1:
        xs = _lin_grid(1.0, 2.0, 200)
        return CurveTable(("x", "g"), [(x, g_plain(x)) for x in xs])
    xs = _lin_grid(0.0, 10.0, 200)
    return CurveTable(("x", "f"), [(x, ratio_exp3(x)) for x in xs])


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
    if figure in (1, 2):
        return _fig_ratio(figure)
    if figure == 3:
        return _fig_envelopes()
    if figure == 4:
        return _fig_bounds(1.0, _lin_grid(1.0, 6.0, 200), _JP_BCD_GE)
    if figure == 5:
        return _fig_bounds(10.0, _lin_grid(10.0, 15.0, 200), _JP_BCD_GE)
    if figure == 6:
        return _fig_bounds(1.0, _interior_grid(1.0, 200), _JP_BCD_LT)
    if figure == 7:
        return _fig_bounds(10.0, _interior_grid(10.0, 200), _JP_BCD_LT)
    if figure == 8:
        return _fig_bounds(0.1, _lin_grid(0.1, 3.0, 200), _JP_A_GE)
    if figure == 9:
        return _fig_bounds(4.0, _interior_grid(4.0, 200), _JP_A_LT)
    if figure == 10:
        return _fig_bounds(2.0, _interior_grid(2.0, 200), _JP_A_LT)
    raise UnknownFigureError(f"no figure preset {figure!r}; valid ids are 1..10")
