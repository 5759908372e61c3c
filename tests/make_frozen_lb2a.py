"""Regenerate the frozen LB2A envelope integrals used in test_bounds.py.

Run from the repository root:

    python tests/make_frozen_lb2a.py

LB2A bounds the complement 1 - Q1(a, b) for b <= a from below by the
integral of an exponential-rate envelope of the Rice density: log I0 is
convex with log I0(0) = 0, so I0(ax) <= e^(zeta x) on [0, b] with
zeta = log I0(ab) / b, and LB2A = 1 - I with

    I = int_0^b x e^(zeta x - (x^2 + a^2) / 2) dx.

Each value is a 50-digit mpmath quadrature of I, split at every integer
so each panel holds a smooth piece of the integrand.  The script prints a
dict literal to paste into ``LB2A_ENVELOPE_INTEGRAL``, and test_bounds.py
checks that the pasted table equals ``frozen_integrals()``.  It is not a
test module.
"""

import mpmath as mp

POINTS = [(2.0, 1.0), (2.0, 1.9), (4.0, 3.0), (6.0, 5.5), (20.0, 19.1)]


def envelope_integral(a: float, b: float) -> mp.mpf:
    a, b = mp.mpf(a), mp.mpf(b)
    zeta = mp.log(mp.besseli(0, a * b)) / b
    panels = [mp.mpf(0)] + list(range(1, int(mp.ceil(b)))) + [b]
    return mp.quad(lambda x: x * mp.exp(zeta * x - (x * x + a * a) / 2), panels)


def frozen_integrals() -> dict[tuple[float, float], float]:
    """(a, b) -> the envelope integral at every point of POINTS, at 50 digits."""
    with mp.workdps(50):
        return {(a, b): float(envelope_integral(a, b)) for a, b in POINTS}


def main() -> None:
    print("LB2A_ENVELOPE_INTEGRAL = {")
    for (a, b), integral in frozen_integrals().items():
        print(f"    ({a!r}, {b!r}): {integral!r},")
    print("}")


if __name__ == "__main__":
    main()
