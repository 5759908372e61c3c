"""Regenerate tests/frozen_q1.py, every frozen Q1 table of the tests.

Run from the repository root (about 47 s on a 2-core host; not a test
module):

    python tests/make_frozen_q1.py > tests/frozen_q1.py

Each value is the 50-digit Simon integral of ``truth.py`` rounded to a
double: Q1 itself, or in the two (S, d) tables the scaled tail of
``truth.q1_tail``.  The suite checks each table's keys against the
point list here, which needs no mpmath evaluation.  The Poisson mixture
of ``mixture.py`` is the second witness: the suite recomputes
``TRAPEZOID_FROZEN`` and ``Q1_FROZEN_PAST_SPAN`` from it, so the
integral that the trapezoid shares with ``truth.py`` is never the only
witness of the values the trapezoid is held to.
"""

import math
import random
import sys

from truth import q1, q1_tail


def _around(a_values, offsets):
    return [(a, a + d) for a in a_values for d in offsets if a + d >= 0.0]


def in_the_band(a, b):
    """The band a <= b <= a + 1, ab < 25, written out: the one domain of q1_quadrature and q1_series."""
    return a <= b <= a + 1.0 and a * b < 25.0


def on_the_expansion_route(a, b):
    """Where q1_reference pairs method a with q1_asymptotic, written out: a >= 100, or ab >= 25,
    b >= a - 1, (b - a)^2 <= ab and (b - a)^2/2 <= 650."""
    d = b - a
    return a >= 100.0 or (a * b >= 25.0 and d >= -1.0 and d * d <= a * b and 0.5 * d * d <= 650.0)


def route_of(a: float, b: float) -> str:
    """The route ``q1_reference`` takes at (a, b), written out from its docstring."""
    if in_the_band(a, b):
        return "band"
    if abs(b - a) <= 1.0:
        return "diagonal below 100" if a < 100.0 else "diagonal from 100"
    if b < a and 0.5 * (a - b) ** 2 > 745.0:
        return "b < a, 1 - Q1 underflows"
    if on_the_expansion_route(a, b):
        return "trapezoid and expansion"
    return "trapezoid and Bessel series, b > a" if b > a else "trapezoid and Bessel series, b < a"


def _route_points(n: int = 42) -> dict[str, list[tuple[float, float]]]:
    """Seeded points on each route of ``q1_reference``, n drawn per route: a
    log-uniform between the route's ends, and b where Q1 is a normal double.
    A draw is filed under the route it takes, which is not always the one
    it was drawn for: the band's draws with ab >= 25 take the diagonal
    route, and the expansion checks some b > a draws below a = 100."""
    rng = random.Random(20261020)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def past(span=30.0):  # |b - a| past the span
        return 1.0 + log_uniform(1e-3, span)

    routes = {  # route: (a from, a to, b at a)
        "band": (1e-3, 100.0, lambda a: a + rng.random()),
        "diagonal below 100": (1e-3, 100.0, lambda a: a - min(a, 1.0) * (1.0 - rng.random())),
        "diagonal from 100": (100.0, 1e6, lambda a: a + rng.uniform(-1.0, 1.0)),
        "trapezoid and Bessel series, b > a": (1e-3, 100.0, lambda a: a + past()),
        "trapezoid and Bessel series, b < a": (1.01, 100.0, lambda a: max(0.0, a - past(min(30.0, a - 1.0)))),
        "trapezoid and expansion": (100.0, 1e6, lambda a: a + rng.choice((-1.0, 1.0)) * past()),
        # (a - b)^2/2 > 745, so q1_reference returns 1.0 without a method a
        "b < a, 1 - Q1 underflows": (40.0, 1e6, lambda a: rng.uniform(0.0, a - 38.7)),
    }
    filed: dict[str, list[tuple[float, float]]] = {route: [] for route in routes}
    for lo, hi, b in routes.values():
        for a in (log_uniform(lo, hi) for _ in range(n)):
            point = (a, b(a))
            filed[route_of(*point)].append(point)
    return filed


# name -> (comment, points, "q1" for Q1 or "tail" for (S, d))
TABLES = {
    "Q1_FROZEN": ("where the quadrature and the Poisson series are held to the truth", [
        (0.0, 1.5), (0.1, 0.5), (0.1, 1.0), (2.0, 1.0), (20.0, 20.0), (0.0, 3.0), (1.0, 2.0),
        (10.0, 8.0), (4.0, 3.0), (0.5, 0.5), (3.0, 0.5), (600.0, 599.0), (600.0, 601.0),
    ], "q1"),
    "Q1_FROZEN_LARGE_A": ("large a", [
        (600.0, 599.0), (600.0, 601.0), (1e3, 997.0), (1e3, 1e3), (1e4, 1e4 + 3), (3e4, 29997.0), (1e5, 1e5),
    ], "q1"),
    "Q1_FROZEN_NEAR_DIAGONAL": ("a >= 100, |b - a| <= 1: q1_reference takes q1_diagonal", [
        (100.0, 100.73), (250.0, 249.0), (1e4, 1e4 + 0.5), (3e5, 3e5 + 1e-6), (1e6, 1e6 - 0.1),
    ], "q1"),
    # one deep in the tail, Q1 = 7.7e-24, then b - a = 3, 3, -1.39 and -5
    "Q1_FROZEN_OFF_DIAGONAL": ("a >= 100 past |b - a| = 1: q1_reference takes q1_trapezoid", [
        (1e3, 1010.0), (1e3, 1003.0), (3e4, 30003.0), (326458.87147227593, 326457.48268537264), (1e6, 999995.0),
    ], "q1"),
    # b - a = +-1.5, +-8, +30, +300 at a = 1e8, 1e12, 1e16 (b the double
    # nearest); b = a and b/a - 1 = +-1e-12 at 1e50 and 1e150; and three
    # far-tail points below a = 100, where the Bessel series recurs forward
    "TAILS_FROZEN_HUGE": ("(S, d) past a = 1e6", [
        *((a, a + db) for a in (1e8, 1e12, 1e16) for db in (-1.5, 1.5, -8.0, 8.0, 30.0, 300.0)),
        *((a, b) for a in (1e50, 1e150) for b in (a, a * (1 + 1e-12), a * (1 - 1e-12))),
        (50.0, 1e7), (99.9, 1e9), (1e-3, 1e150),
    ], "tail"),
    # Q1 at b > a, the route's deep-tail baselines (0, 30) and (30, 67) among
    # them; then three points where b - a or its square rounds, so S carries
    # that rounding (the last two are where scipy's ncx2.sf is off by 8.2e-6
    # and 6.7e-9); then 1 - Q1 at b < a.  Then ab < 1e-3 on either side and
    # (97.3, 701.6), where the ulp of d is 3e-11.  The last three are 1 - Q1
    # at small ab, where the b < a integrand's parts cancel unless the
    # trapezoid takes its expm1 form
    "TRAPEZOID_FROZEN": ("(S, d) where q1_trapezoid and q1_bessel_series are held to it", [
        (1.0, 30.0), (2.0, 12.0), (0.5, 200.0), (3.0, 80.0), (4.0, 5.0), (20.0, 25.0), (1.0, 50.0),
        (0.0, 30.0), (30.0, 67.0),
        (0.593, 37.229), (7.1403525920058035, 41.18460043448496), (6.27493505783561, 40.55297290545762),
        (20.0, 1.0), (30.0, 2.0),
        (1e-4, 5.0), (0.03, 0.02), (97.3, 701.6),
        (0.3133, 0.04155), (0.23, 0.023), (2.0, 5e-8),
    ], "tail"),
    "Q1_FROZEN_NEAR_TIE": ("b < a within 1 of a, a < 100: q1_reference takes q1_diagonal", [
        (0.01, 0.0099), (1.0, 0.999999), (5.0, 4.99), (50.0, 49.5), (99.9, 98.95),
    ], "q1"),
    "Q1_FROZEN_PAST_SPAN": ("b a little past a + 1, a < 100: the trapezoid with the Bessel series", [
        (0.5, 1.7), (1.0, 2.5), (10.0, 11.5), (20.0, 23.0), (50.0, 53.0), (99.9, 101.2),
    ], "q1"),
    "Q1_FROZEN_ACROSS_TIE": ("criterion 05: either side of b = a below a = 100", _around(
        (0.1, 1.0, 2.0, 10.0, 20.0), (-0.5, -0.1, -0.01, 0.0, 0.01, 0.1, 0.5),
    ), "q1"),
    "Q1_FROZEN_EXPANSION": ("where q1_asymptotic is held to the truth", _around(
        (100.0, 173.0, 300.0, 450.0, 600.0), (-40.0, -10.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 10.0, 40.0),
    ), "q1"),
}
ROUTE_POINTS = _route_points()


def _rows(points, form: str, indent: str) -> list[str]:
    rows = []
    for a, b in points:
        if form == "q1":
            value = repr(float(q1(a, b)))
        else:
            s, d, _ = q1_tail(a, b)
            value = f"({float(s)!r}, {d!r})"
        rows.append(f"{indent}({a!r}, {b!r}): {value},")
    return rows


def frozen_module() -> str:
    lines = [
        '"""Frozen 50-digit Q1 values, Simon\'s integral of ``truth.py`` rounded to doubles.',
        "",
        "Regenerate with ``python tests/make_frozen_q1.py > tests/frozen_q1.py``;",
        "that script says where each table's points lie and why.  A (S, d)",
        "table holds S e^-d = Q1 (b > a) or 1 - Q1 (b < a), with d the double",
        "0.5 (b - a)^2; at b = a, S is Q1 and d = 0, and from d = 2^52 on S is",
        "the integral alone, as the methods return it.",
        '"""',
    ]
    for name, (comment, points, form) in TABLES.items():
        lines += ["", f"# {comment}", f"{name} = {{", *_rows(points, form, "    "), "}"]
    lines += ["", "# Q1 at seeded points on each route of q1_reference", "Q1_FROZEN_ROUTES = {"]
    for route, points in ROUTE_POINTS.items():
        lines += [f"    {route!r}: {{", *_rows(points, "q1", "        "), "    },"]
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(frozen_module())
