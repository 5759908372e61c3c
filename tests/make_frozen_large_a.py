"""Regenerate the frozen large-argument Q1 values used in test_oracle.py.

Run from the repository root:

    python tests/make_frozen_large_a.py

Each value is a 50-digit mpmath quadrature of the defining integral

    Q1(a, b) = int_b^inf x exp(-(x - a)^2 / 2) e^(-a x) I0(a x) dx,

cut at max(a, b) + 40, where the integrand is below e^-800 of its peak,
and split at every integer so each panel holds a smooth piece of the
Gaussian-like peak.  The script prints two dict literals to paste into
test_oracle.py: ``Q1_FROZEN_LARGE_A``, and ``Q1_FROZEN_NEAR_DIAGONAL`` at
points with a >= 100 and |b - a| <= 1, where ``q1_reference`` takes
``q1_diagonal``.  Takes about 25 s; it is not a test module.
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

NEAR_DIAGONAL = [
    (100.0, 100.73),
    (250.0, 249.0),
    (1e4, 1e4 + 0.5),
    (3e5, 3e5 + 1e-6),
    (1e6, 1e6 - 0.1),
]


def q1(a: float, b: float) -> mp.mpf:
    a, b = mp.mpf(a), mp.mpf(b)

    def rice(x):
        return x * mp.exp(-((x - a) ** 2) / 2) * mp.besseli(0, a * x) * mp.exp(-a * x)

    hi = int(math.ceil(max(a, b))) + 40
    return mp.quad(rice, [b] + list(range(int(mp.floor(b)) + 1, hi + 1)))


def main() -> None:
    mp.mp.dps = 50
    for name, points in (("Q1_FROZEN_LARGE_A", POINTS), ("Q1_FROZEN_NEAR_DIAGONAL", NEAR_DIAGONAL)):
        print(f"{name} = {{")
        for a, b in points:
            print(f"    ({a!r}, {b!r}): {float(q1(a, b))!r},")
        print("}")


if __name__ == "__main__":
    main()
