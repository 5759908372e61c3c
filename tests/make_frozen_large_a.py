"""Regenerate the frozen large-argument Q1 values used in test_oracle.py.

Run from the repository root:

    python tests/make_frozen_large_a.py

Each value is the 50-digit Simon integral of ``truth.py``.  The script
prints four dict literals to paste into test_oracle.py:
``Q1_FROZEN_LARGE_A``, ``Q1_FROZEN_NEAR_DIAGONAL`` at points with
a >= 100 and |b - a| <= 1, where ``q1_reference`` takes
``q1_diagonal``, ``Q1_FROZEN_OFF_DIAGONAL`` at points with a >= 100
past that span, where it takes ``q1_trapezoid``: one deep in the tail
at (1e3, 1010), Q1 = 7.7e-24, and four at b - a = 3 (a = 1e3 and 3e4),
-1.39 (a = 3.3e5) and -5 (a = 1e6), and ``TAILS_FROZEN_HUGE``, the
(S, d) of ``truth.q1_tail`` past the old range of 1e6: at a = 1e8, 1e12
and 1e16 with b - a = +-1.5, +-8, +30 and +300 (b the double nearest),
at a = 1e50 and 1e150 with b = a and b/a - 1 = +-1e-12, and at three
far-tail points below a = 100, where the Bessel series recurs forward.
Takes about 10 s; it is not a test module.
"""

from truth import q1, q1_tail

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


HUGE = [
    *((a, a + db) for a in (1e8, 1e12, 1e16) for db in (-1.5, 1.5, -8.0, 8.0, 30.0, 300.0)),
    *((a, b) for a in (1e50, 1e150) for b in (a, a * (1 + 1e-12), a * (1 - 1e-12))),
    (50.0, 1e7), (99.9, 1e9), (1e-3, 1e150),
]


def main() -> None:
    for name, points in (
        ("Q1_FROZEN_LARGE_A", POINTS),
        ("Q1_FROZEN_NEAR_DIAGONAL", NEAR_DIAGONAL),
        ("Q1_FROZEN_OFF_DIAGONAL", OFF_DIAGONAL),
    ):
        print(f"{name} = {{")
        for a, b in points:
            print(f"    ({a!r}, {b!r}): {float(q1(a, b))!r},")
        print("}")
    print("TAILS_FROZEN_HUGE = {")
    for a, b in HUGE:
        s, d, _ = q1_tail(a, b)
        print(f"    ({a!r}, {b!r}): ({float(s)!r}, {d!r}),")
    print("}")


if __name__ == "__main__":
    main()
