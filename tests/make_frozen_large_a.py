"""Regenerate the frozen large-argument Q1 values used in test_oracle.py.

Run from the repository root:

    python tests/make_frozen_large_a.py

Each value is a 50-digit mpmath quadrature of the defining integral

    Q1(a, b) = int_b^inf x exp(-(x - a)^2 / 2) e^(-a x) I0(a x) dx,

cut at max(a, b) + 40, where the integrand is below e^-800 of its peak,
and split at every integer so each panel holds a smooth piece of the
Gaussian-like peak.  The script prints three dict literals to paste
into test_oracle.py: ``Q1_FROZEN_LARGE_A``, ``Q1_FROZEN_NEAR_DIAGONAL``
at points with a >= 100 and |b - a| <= 1, where ``q1_reference`` takes
``q1_diagonal``, and ``Q1_FROZEN_OFF_DIAGONAL`` at points with a >= 100
past that span, where it takes ``q1_trapezoid``: one deep in the tail
at (1e3, 1010), Q1 = 7.7e-24, and four at b - a = 3 (a = 1e3 and 3e4),
-1.39 (a = 3.3e5) and -5 (a = 1e6).  The unit panels are fine enough
for |b - a| <= 10, as at all of these points, and ``q1`` refuses a point
past that: at (353935.55, 353971.26), 36 past a, they give 1.77e-5
relative above a 50-digit integral of Simon's form, and 1/8-unit panels
still leave 2.8e-9.  Takes about 35 s; it is not a test module.
"""

import math

import mpmath as mp

POINTS = [
    (600.0, 599.0),
    (600.0, 601.0),
    (1e3, 997.0),
    (1e3, 1e3),
    (1e4, 1e4 + 3),
    (3e4, 29997.0),
    (1e5, 1e5),
]

OFF_DIAGONAL = [
    (1e3, 1010.0),
    (1e3, 1003.0),
    (3e4, 30003.0),
    (326458.87147227593, 326457.48268537264),
    (1e6, 999995.0),
]

NEAR_DIAGONAL = [
    (100.0, 100.73),
    (250.0, 249.0),
    (1e4, 1e4 + 0.5),
    (3e5, 3e5 + 1e-6),
    (1e6, 1e6 - 0.1),
]


def q1(a: float, b: float) -> mp.mpf:
    """Q1(a, b) at the working precision; refuses |b - a| > 10 (see the module docstring)."""
    if abs(b - a) > 10.0:
        raise ValueError(f"unit panels are too coarse past |b - a| = 10, got (a={a!r}, b={b!r})")
    a, b = mp.mpf(a), mp.mpf(b)

    def rice(x):
        return x * mp.exp(-((x - a) ** 2) / 2) * mp.besseli(0, a * x) * mp.exp(-a * x)

    hi = int(math.ceil(max(a, b))) + 40
    return mp.quad(rice, [b] + list(range(int(mp.floor(b)) + 1, hi + 1)))


def main() -> None:
    mp.mp.dps = 50
    for name, points in (
        ("Q1_FROZEN_LARGE_A", POINTS),
        ("Q1_FROZEN_NEAR_DIAGONAL", NEAR_DIAGONAL),
        ("Q1_FROZEN_OFF_DIAGONAL", OFF_DIAGONAL),
    ):
        print(f"{name} = {{")
        for a, b in points:
            print(f"    ({a!r}, {b!r}): {float(q1(a, b))!r},")
        print("}")


if __name__ == "__main__":
    main()
