"""Regenerate the Gauss-Legendre rule of src/marcumq/oracle.py.

Run from the repository root:

    python tests/make_gauss_legendre.py

``q1_diagonal`` integrates the Rice density over at most one unit next
to b = a with a fixed NODES-point Gauss-Legendre rule.  The nodes are
the roots of the Legendre polynomial P_n, found by Newton's method from
Tricomi's estimate cos(pi (i - 1/4)/(n + 1/2)), and the weights are
2 / ((1 - x^2) P_n'(x)^2).  Both run at 50 digits and are rounded to the
nearest double, so the output is the same byte for byte on every run.
The rule is symmetric, so only the positive nodes are printed.  It takes
well under a second; it is not a test module.
"""

import sys

import mpmath as mp

NODES = 10


def _legendre_and_derivative(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    p_prev, p = mp.mpf(1), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1)


def positive_nodes(n=NODES):
    """(node, weight) of the n-point rule on [-1, 1] for each positive node, smallest first."""
    rule = []
    for i in range(1, n // 2 + 1):
        x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            p, dp = _legendre_and_derivative(n, x)
            step = p / dp
            x -= step
            if abs(step) < mp.mpf(10) ** (-mp.mp.dps + 5):
                break
        _, dp = _legendre_and_derivative(n, x)
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return sorted(rule)


def generated_block() -> str:
    lines = [
        "# --- generated by tests/make_gauss_legendre.py: do not edit by hand ---",
        f"# the {NODES}-point Gauss-Legendre rule on [-1, 1]: (node, weight) for each",
        "# positive node; its mirror -node has the same weight",
        "_GAUSS_LEGENDRE = (",
        *(f"    ({float(x)!r}, {float(w)!r})," for x, w in positive_nodes()),
        ")",
        "# --- end of generated block ---",
    ]
    return "\n".join(lines) + "\n"


def main() -> None:
    mp.mp.dps = 50
    sys.stdout.write(generated_block())


if __name__ == "__main__":
    main()
