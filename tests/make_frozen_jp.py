"""Regenerate the frozen JP envelope integrals used in test_bounds.py.

Run from the repository root:

    python tests/make_frozen_jp.py

Each JP bound is the integral of an envelope of the Rice density
R(x) = x e^(-(x^2 + a^2)/2) I0(ax), anchored at x = b:

  * I0(x)/(e^x + 3) decreases (the ``f_dec_eq2`` scan, which rests on the
    ``g_negative`` one), so x I0(ax) <= x I0(ab)(e^(ax) + 3)/(e^(ab) + 3)
    for x >= b and >= it for x <= b: the (e^x + 3) envelope
        E(x) = x e^(-(x^2 + a^2)/2) I0(ab) (e^(ax) + 3)/(e^(ab) + 3);
  * x I0(x)/sinh(x) increases (the ``f_inc_sinh`` scan), so
    x I0(ax) >= b I0(ab) sinh(ax)/sinh(ab) for x >= b and <= it for
    x <= b: the sinh envelope
        S(x) = e^(-(x^2 + a^2)/2) b I0(ab) sinh(ax)/sinh(ab).

UB1JP = int_b^inf E and LB1JP = int_b^inf S for b >= a; UB2JP = 1 - I
and LB2JP = 1 - I for b < a with I = int_0^b E and int_0^b S.  The
frozen value is the integral itself, a 50-digit mpmath quadrature of
the envelope over its value at b (mp.quad's tolerance is absolute), so
a tail of 1e-184 keeps its digits too.  Over [0, b] it is split at every
integer; over [b, inf) every 1/max(1, b - a), where the envelopes fall
by about a factor e, for 80 steps, and then runs on to infinity.  The
script prints a dict literal to paste into ``JP_ENVELOPE_INTEGRAL``.  It
is not a test module.
"""

import mpmath as mp

# b >= a: the points where the deep-tail error was measured, (1, 30) and
# (2, 25) among them; b < a: LB2A's points and (1, 0.5)
POINTS_GE = [(0.1, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5), (4.0, 9.0), (10.0, 12.0), (1.0, 30.0), (2.0, 25.0)]
POINTS_LT = [(1.0, 0.5), (2.0, 1.0), (2.0, 1.9), (4.0, 3.0), (6.0, 5.5), (20.0, 19.1)]


def envelopes(a: mp.mpf, b: mp.mpf):
    """The (e^x + 3) and sinh envelopes of the Rice density anchored at b."""
    i0 = mp.besseli(0, a * b)

    def exp3(x):
        return x * mp.exp(-(x * x + a * a) / 2) * i0 * (mp.exp(a * x) + 3) / (mp.exp(a * b) + 3)

    def sinh(x):
        return mp.exp(-(x * x + a * a) / 2) * b * i0 * mp.sinh(a * x) / mp.sinh(a * b)

    return exp3, sinh


def envelope_integrals(a: float, b: float) -> tuple[mp.mpf, mp.mpf]:
    """(int E, int S) over [b, inf) for b >= a, over [0, b] for b < a."""
    a, b = mp.mpf(a), mp.mpf(b)
    if b >= a:
        # past b both envelopes fall by about e^-(b - a) per unit of x
        step = 1 / max(1, b - a)
        panels = [b + k * step for k in range(81)] + [mp.inf]
    else:
        panels = [mp.mpf(0)] + list(range(1, int(mp.ceil(b)))) + [b]
    return tuple(f(b) * mp.quad(lambda x: f(x) / f(b), panels) for f in envelopes(a, b))


def main() -> None:
    mp.mp.dps = 50
    rows = {"UB1JP": [], "LB1JP": [], "UB2JP": [], "LB2JP": []}
    for names, points in ((("UB1JP", "LB1JP"), POINTS_GE), (("UB2JP", "LB2JP"), POINTS_LT)):
        for a, b in points:
            for name, value in zip(names, envelope_integrals(a, b)):
                rows[name].append(f'    ("{name}", {a!r}, {b!r}): {float(value)!r},')
    print("JP_ENVELOPE_INTEGRAL = {")
    for lines in rows.values():
        print("\n".join(lines))
    print("}")


if __name__ == "__main__":
    main()
