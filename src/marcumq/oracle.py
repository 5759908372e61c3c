"""Reference (ground-truth) evaluation of the first-order Marcum Q-function.

Q1(a, b) is the upper-tail integral of the Rice density

    R(x) = x exp(-(x^2 + a^2)/2) I0(a x),    Q1(a, b) = int_b^inf R(x) dx.

Three methods are provided; ``q1_reference`` cross-validates two of them:

  * ``q1_quadrature``: adaptive Gauss-Kronrod (G7/K15) integration of the
    Rice density, written in the scaled form x e^(-(x-a)^2/2) i0e(a x) so
    no intermediate overflows for any a.  For b < a the complement
    1 - int_0^b R is integrated instead (the complement integrand is the
    same; the region [0, b] avoids the non-monotone tail split).
  * ``q1_series``: the noncentral chi-square mixture representation

        Q1(a, b) = sum_k  Pois(k; a^2/2) * P[Pois(b^2/2) <= k],

    summed over a mode-centered window of each Poisson factor with
    explicit geometric bounds on the discarded tails.  Each window holds
    about 17 max(a, b) entries, so cost grows as O(a) in time and memory;
    windows above MAX_SERIES_WINDOW entries are refused.
  * ``q1_asymptotic``: the large-xi expansion (xi = ab) in terms of erfc
    of Gil, Segura & Temme, "Algorithm 939: Computation of the Marcum
    Q-function", ACM TOMS 40(3), 2014, section 3 (after Temme 1993).
    For b >= a, with rho = b/a and w = (b - a)/sqrt(2),

        Q1 ~ sqrt(rho) erfc(w)/2 + rho sqrt(xi)/(2 sqrt(2 pi))
             * sum_{n>=1} (-1)^n (alpha_n(0) - alpha_n(1)/rho) xi^-n G_n,

    where alpha_n(nu) are the Hankel coefficients of I_nu and G_n follow
    G_1 = 2(e^-w^2 - sqrt(pi) w erfc(w)), G_n = (e^-w^2 - w^2 G_{n-1})/(n - 1/2).
    For b < a it uses Q1(a, b) = 1 + e^(-(a-b)^2/2) i0e(ab) - Q1(b, a),
    with i0e from its own Hankel sum.  Its domain is large xi with
    (b - a)^2 small against xi; there it needs 3-5 terms, O(1) time and
    memory.  Outside, its terms grow before reaching double precision
    and ConvergenceError is raised.

Neither the series nor the expansion calls a Bessel function, so each
shares no code with the quadrature.  ``q1_reference`` pairs the
quadrature with the series for a < ASYMPTOTIC_MIN_A (every argument the
paper's tables, figures and scans use) and with the expansion from
there on, where the series window is already about 1.7k entries.  At
a >= 100 the expansion covers every b: ab < 1e3 forces b < 10, where
1 - Q1 underflows.  The quadrature and the series run at an absolute
tolerance of DEFAULT_TOL = 1e-12, the expansion to 1e-17 of its sum, and
``q1_reference`` fails loudly if the pair disagrees by more than 1e-10.
It refuses arguments above MAX_ORACLE_ARG = 1e6: past it the
quadrature's rounding error grows with ulp(a) beyond that gate.

``q1_sweep(a, b_values)`` yields ``q1_reference(QArgs(a, b))`` for each b
of a fixed-a sweep.  Each point runs inside a sweep scope (a
ContextVar, set and reset around the point, never held across a yield)
that shares the work depending on a alone: the quadrature's panels whose
root interval is bounded by two seeds (or by 0 and a seed), with their
bisection children, and the series' outer Poisson window for a^2/2.  A
panel is a pure function of (a, lo, hi), so every result is
bit-identical to a point call; the scope dies with the sweep.

Point calls keep call-local state only.  A sweep's scope is private to
its generator and each ContextVar value to its thread, so every function
here is safe to call from any number of threads.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator
from contextvars import ContextVar
from dataclasses import dataclass, field

from .errors import ConvergenceError, CrossValidationError, DomainError
from .specfun import bessel_i0_scaled

AGREEMENT_GATE = 1e-10
ASYMPTOTIC_MIN_A = 100.0  # q1_reference uses q1_asymptotic, not q1_series, from here on
DEFAULT_TOL = 1e-12
MAX_ORACLE_ARG = 1e6  # q1_reference refuses a or b above this
MAX_SERIES_WINDOW = 2_000_000  # entries in one Poisson window; reached near a = 1.2e5
_TAIL_SIGMAS = 40.0  # integration cutoff: integrand < 1e-300 of its peak
_EXP_UNDERFLOW = 745.0  # exp(-x) is 0.0 in double precision past this
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class QArgs:
    """Argument pair of Q1: noncentrality-like a >= 0 and threshold b >= 0."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, v in (("a", self.a), ("b", self.b)):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or math.isnan(v) or math.isinf(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            if v < 0:
                raise DomainError(f"{name} must be nonnegative, got {v!r}")


@dataclass(frozen=True)
class OracleResult:
    """Cross-validated reference value with both method values."""

    value: float
    method_a_value: float  # quadrature
    method_b_value: float  # the method named by method_b
    agreement_gap: float
    method_b: str  # "series" or "asymptotic"


@dataclass
class _Sweep:
    """Work shared by the points of one fixed-a sweep (see ``q1_sweep``)."""

    a: float
    panels: dict = field(default_factory=dict)  # (lo, hi) -> (value, error)
    window: tuple | None = None  # _poisson_window(a * a / 2)


_SWEEP: ContextVar[_Sweep | None] = ContextVar("marcumq_oracle_sweep", default=None)


def _sweep_for(a: float) -> _Sweep | None:
    """The current sweep scope if it sweeps this a, else None."""
    scope = _SWEEP.get()
    return scope if scope is not None and scope.a == a else None


def rice_pdf(x: float, a: float) -> float:
    """Rice density x exp(-(x^2+a^2)/2) I0(ax), evaluated in scaled form."""
    if x < 0 or a < 0:
        raise DomainError("rice_pdf requires x >= 0 and a >= 0")
    if x == 0.0:
        return 0.0
    try:
        g = math.exp(-0.5 * (x - a) ** 2)
    except OverflowError:  # (x - a)^2 > 1.8e308: the density underflowed long before
        return 0.0
    return x * g * bessel_i0_scaled(a * x)


# G7/K15 nodes: (abscissa, Gauss weight, Kronrod weight)
_GK15 = (
    (0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
    (0.0, 0.417959183673469, 0.209482141084728),
)


def _gk15_panel(f, lo: float, hi: float, memo: dict | None = None) -> tuple[float, float]:
    """(value, error) of one G7/K15 panel; taken from or stored to ``memo``."""
    if memo is not None:
        hit = memo.get((lo, hi))
        if hit is not None:
            return hit
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    g = k = 0.0
    for z, wg, wk in _GK15:
        fz = f(c + h * z)
        g += wg * fz
        k += wk * fz
    g *= h
    k *= h
    d = abs(k - g)
    result = k, min(d, (200.0 * d) ** 1.5)
    if memo is not None:
        memo[lo, hi] = result
    return result


def _adaptive_quad(f, lo, hi, tol, seeds=(), max_panels=2000, memo=None):
    """Globally adaptive G7/K15 with largest-error-first bisection.

    With ``memo`` (a dict), a root panel whose two ends are both seeds
    or 0, and every panel bisected from it, is taken from ``memo`` by
    (left, right), or computed and stored there.  Every call sharing a
    memo must integrate the same f with the same seeds.
    """
    anchors = {0.0, *seeds} if memo is not None else ()
    pts = sorted({lo, hi, *(p for p in seeds if lo < p < hi)})
    heap = []
    for left, right in zip(pts, pts[1:]):
        shared = left in anchors and right in anchors
        v, e = _gk15_panel(f, left, right, memo if shared else None)
        heap.append((-e, left, right, v, shared))
    heapq.heapify(heap)
    n = len(heap)
    while True:
        if math.fsum(-entry[0] for entry in heap) <= tol:
            return math.fsum(entry[3] for entry in heap)
        if n >= max_panels:
            raise ConvergenceError(
                f"quadrature used {n} panels without reaching tol={tol:g}"
            )
        _, left, right, _, shared = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        sub = memo if shared else None
        v1, e1 = _gk15_panel(f, left, mid, sub)
        v2, e2 = _gk15_panel(f, mid, right, sub)
        heapq.heappush(heap, (-e1, left, mid, v1, shared))
        heapq.heappush(heap, (-e2, mid, right, v2, shared))
        n += 1


def q1_quadrature(args: QArgs, form: str = "auto") -> float:
    """Q1 by adaptive quadrature of the Rice density, absolute error <= DEFAULT_TOL.

    ``form`` selects the integration route: "tail" integrates over
    [b, max(a, b) + 40] directly, "complement" integrates 1 - int_0^b,
    and "auto" picks tail for b >= a, complement for b < a.  Both forms
    are exposed so their agreement across b = a can be certified.
    """
    if form not in ("auto", "tail", "complement"):
        raise DomainError(f"unknown quadrature form {form!r}")
    a, b = args.a, args.b
    if form == "auto":
        form = "tail" if b >= a else "complement"
    # panel seeds around the integrand peak at x ~ a
    seeds = [a + d for d in (-30, -20, -10, -5, -2, -1, 0, 1, 2, 5, 10, 20, 30)]
    integrand = lambda x: rice_pdf(x, a)
    scope = _sweep_for(a)
    memo = None if scope is None else scope.panels
    if form == "tail":
        hi = max(a, b) + _TAIL_SIGMAS
        return _adaptive_quad(integrand, b, hi, DEFAULT_TOL, seeds, memo=memo)
    if b == 0.0:
        return 1.0
    return 1.0 - _adaptive_quad(integrand, 0.0, b, DEFAULT_TOL, seeds, memo=memo)


def _poisson_window(mean: float, width_sigmas: float = 12.0):
    """Poisson(mean) pmf on a mode-centered window.

    The mode term is seeded through lgamma and neighbors follow from the
    exact pmf recurrence, so every entry carries the same (tiny) seed
    error, which cancels when sums are normalized by the window mass.

    Returns (lo, hi, pmf, mass, tail_lo, tail_hi) where the tails are
    geometric-series bounds on the discarded mass on each side.
    """
    w = int(width_sigmas * math.sqrt(mean)) + 40
    m = int(mean)
    lo, hi = max(0, m - w), m + w
    if hi - lo + 1 > MAX_SERIES_WINDOW:
        raise DomainError(
            f"series window of {hi - lo + 1} entries for Poisson mean {mean:g} "
            f"exceeds the limit of {MAX_SERIES_WINDOW} entries (a or b above ~1.2e5)"
        )
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


def q1_series(args: QArgs) -> float:
    """Q1 by the noncentral chi-square Poisson mixture, absolute error <= DEFAULT_TOL.

    Both Poisson factors are restricted to mode-centered windows wide
    enough that the geometric bounds on the discarded mass stay below
    DEFAULT_TOL/10; a ConvergenceError is raised otherwise.  Since the mixture
    weights sum to 1 and the inner factor is a CDF in [0, 1], the
    discarded mass bounds the truncation error directly.
    """
    lam = args.a * args.a / 2.0
    y = args.b * args.b / 2.0
    if lam == 0.0:
        return math.exp(-y)
    if y == 0.0:
        return 1.0
    scope = _sweep_for(args.a)
    if scope is None:
        outer = _poisson_window(lam)
    else:
        if scope.window is None:
            scope.window = _poisson_window(lam)
        outer = scope.window
    klo, khi, p, pmass, ptail_lo, ptail_hi = outer
    jlo, jhi, q, qmass, qtail_lo, qtail_hi = _poisson_window(y)
    if ptail_lo + ptail_hi + qtail_lo + qtail_hi > 0.1 * DEFAULT_TOL:
        raise ConvergenceError(
            "series windows too narrow for DEFAULT_TOL "
            f"(discarded mass bound {ptail_lo + ptail_hi + qtail_lo + qtail_hi:.3e})"
        )
    # the mixture terms run over klo..khi with the running CDF of
    # Poisson(y) at k, Neumaier-compensated; that CDF is 0 below its window
    # (no term) and 1 above it (the bare outer pmf).  fsum is correctly
    # rounded, so neither the dropped zeros nor the order change the sum.
    acc = comp = 0.0
    terms = []
    for k in range(jlo, min(khi, jhi) + 1):
        x = q[k - jlo]
        t = acc + x
        if abs(acc) >= abs(x):
            comp += (acc - t) + x
        else:
            comp += (x - t) + acc
        acc = t
        if k >= klo:
            terms.append(p[k - klo] * ((acc + comp) / qmass))
    terms += p[max(jhi + 1, klo) - klo:]
    return math.fsum(terms) / pmass


def _asymptotic_sum(terms) -> float:
    """Sum of an asymptotic series, up to its first term <= 1e-17 of the total.

    Raises ConvergenceError if a term grows before that: the series has
    passed its smallest term without reaching double precision.  So does
    a non-finite term (xi = ab overflows), which no comparison would stop.
    """
    total, prev = 0.0, math.inf
    for n, t in enumerate(terms):
        if not math.isfinite(t):
            raise ConvergenceError(f"asymptotic series term {n} is {t!r} (xi = ab out of range)")
        if abs(t) > prev:
            raise ConvergenceError(
                f"asymptotic series term {n} grows before reaching 1e-17 of the sum "
                "(arguments outside the expansion's domain)"
            )
        total += t
        if abs(t) <= 1e-17 * abs(total):
            return total
        prev = abs(t)


def _i0e_hankel(x: float) -> float:
    """e^-x I0(x) from the Hankel expansion sum_n (-1)^n alpha_n(0) x^-n / sqrt(2 pi x)."""

    def terms():
        c, n = 1.0, 0
        while True:
            yield c
            n += 1
            c *= (2 * n - 1) ** 2 / (8 * n * x)

    return _asymptotic_sum(terms()) / (_SQRT_2PI * math.sqrt(x))


def _q1_large_xi(a: float, b: float) -> float:
    """Q1(a, b) for b >= a > 0 by the large-xi expansion (see module docstring)."""
    xi, rho = a * b, b / a
    w = (b - a) / math.sqrt(2.0)
    ec, ew = math.erfc(w), math.exp(-w * w)
    scale = rho * math.sqrt(xi) / (2.0 * _SQRT_2PI)

    def terms():
        # n = 0 in closed form: the product (1 - 1/rho) G_0 cancels near b = a
        yield 0.5 * math.sqrt(rho) * ec
        g = 2.0 * (ew - _SQRT_PI * w * ec)
        c0 = c1 = scale  # scale * (-1)^n alpha_n(nu) xi^-n for nu = 0, 1
        n = 1
        while True:
            k = (2 * n - 1) ** 2
            c0 *= k / (8 * n * xi)
            c1 *= (k - 4) / (8 * n * xi)
            yield (c0 - c1 / rho) * g
            g = (ew - w * w * g) / (n + 0.5)
            n += 1

    return _asymptotic_sum(terms())


def q1_asymptotic(args: QArgs) -> float:
    """Q1 by the large-xi expansion in erfc (GST 2014), O(1) time and memory.

    Accurate to about 1e-15 where xi = ab is large and (b - a)^2 small
    against it, which holds for every b once a >= ASYMPTOTIC_MIN_A.
    Elsewhere the expansion's terms grow first and ConvergenceError is
    raised.  No Bessel function is called.
    """
    a, b = args.a, args.b
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    if b >= a:
        return _q1_large_xi(a, b)
    d = 0.5 * (a - b) ** 2
    if d > _EXP_UNDERFLOW:
        # 1 - Q1 <= e^-d / 2 (Simon-Alouini), which underflows here
        return 1.0
    return 1.0 + math.exp(-d) * _i0e_hankel(a * b) - _q1_large_xi(b, a)


def q1_reference(args: QArgs) -> OracleResult:
    """Cross-validated reference Q1 value.

    Runs the quadrature and, as the second method, the series for
    a < ASYMPTOTIC_MIN_A or the large-xi expansion from there on.
    Returns their mean, and raises CrossValidationError if they
    disagree by more than 1e-10 (which would indicate a defect, not an
    input problem).  Raises DomainError when a or b exceeds
    MAX_ORACLE_ARG.
    """
    if max(args.a, args.b) > MAX_ORACLE_ARG:
        raise DomainError(
            f"the oracle covers a, b <= {MAX_ORACLE_ARG:g}, got (a={args.a:g}, b={args.b:g})"
        )
    qa = q1_quadrature(args)
    if args.a >= ASYMPTOTIC_MIN_A:
        method_b, qb = "asymptotic", q1_asymptotic(args)
    else:
        method_b, qb = "series", q1_series(args)
    gap = abs(qa - qb)
    if gap > AGREEMENT_GATE:
        raise CrossValidationError(
            f"reference methods disagree at (a={args.a:g}, b={args.b:g}): "
            f"quadrature={qa!r}, {method_b}={qb!r}, gap={gap:.3e}"
        )
    value = min(1.0, max(0.0, 0.5 * (qa + qb)))
    return OracleResult(
        value=value, method_a_value=qa, method_b_value=qb, agreement_gap=gap, method_b=method_b
    )


def q1_sweep(a: float, b_values: Iterable[float]) -> Iterator[OracleResult]:
    """``q1_reference(QArgs(a, b))`` for each b of ``b_values``, in order.

    The points share the work that depends on a alone (see the module
    docstring); every result is bit-identical to the point call.  The
    shared state lives in this generator only and is active only while a
    point is being computed, so nothing outlives the sweep.
    """
    scope = _Sweep(a)
    for b in b_values:
        args = QArgs(a, b)
        token = _SWEEP.set(scope)
        try:
            result = q1_reference(args)
        finally:
            _SWEEP.reset(token)
        yield result
