"""Regenerate the Bessel kernel coefficients of src/marcumq/specfun.py.

Run from the repository root:

    python tests/make_bessel_coeffs.py            # the generated block of specfun.py
    python tests/make_bessel_coeffs.py --frozen   # the whole of tests/frozen_bessel.py

The kernels cover x >= 0 in four pieces, each one fixed-degree polynomial:

  * [0, 8]: I0(x) = 1 + y P(y) and I1(x) = (x/2) (1 + y Q(y)) with
    y = x^2/4, where P and Q interpolate (I0 - 1)/y and (2 I1/x - 1)/y
    at the Chebyshev points of y in [0, 16];
  * (8, 16] and (16, 1000): sqrt(x) e^-x I_nu(x) interpolated at the
    Chebyshev points of s in [-1, 1], an affine map of 1/x;
  * [1000, inf): the Hankel sum (2 pi)^-1/2 sum_k (-1)^k alpha_k(nu) x^-k
    to k = 5, whose first omitted term is below 1e-18 of the sum there.

A fifth kernel gives e^-x (I0(x) - I1(x)) on [1000, inf) as the
difference of the two Hankel sums, coefficient by coefficient, so it
carries none of the cancellation of i0e - i1e.  Its k = 0 term is zero,
so it is taken one term further, to k = 6, to keep its first omitted
term below 1e-17 of the sum at x = 1000.

Interpolation runs at 50 digits and every coefficient is rounded to the
nearest double, so the output is the same byte for byte on every run.
The script prints the largest relative error of each fit to standard
error.  ``--frozen`` prints 50-digit mpmath values of i0e, i1e, I0 and
I1, rounded to doubles, at every piece boundary and one ulp either side
of it plus a log grid from 1e-300 to 1e9.  It takes a few seconds; it
is not a test module.
"""

import math
import sys

import mpmath as mp

SMALL_X = 8.0
# (lo, hi, degree) of the Chebyshev pieces in s, an affine map of 1/x
LARGE_PIECES = ((8.0, 16.0, 14), (16.0, 1000.0, 12))
SMALL_DEGREE = 14
HANKEL_DEGREE = 5
# i0e - i1e starts at 1/x: one more term for the same relative truncation
HANKEL_DIFF_DEGREE = HANKEL_DEGREE + 1


def cheb_monomial(f, lo, hi, degree):
    """Monomial coefficients, lowest first, of the interpolant of f on [lo, hi]
    at its degree + 1 Chebyshev points."""
    n = degree + 1
    nodes = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / n) for j in range(n)]
    vals = [f((hi + lo) / 2 + (hi - lo) / 2 * s) for s in nodes]
    cheb = [2 * mp.fsum(v * mp.chebyt(k, s) for v, s in zip(vals, nodes)) / n for k in range(n)]
    cheb[0] /= 2
    # T_k as monomials in the fit variable v, through s = (2 v - lo - hi) / (hi - lo)
    lin = [-(hi + lo) / (hi - lo), 2 / (hi - lo)]
    polys = [[mp.mpf(1)], lin]
    while len(polys) < n:
        polys.append(_sub(_mul2(lin, polys[-1]), polys[-2]))
    return [mp.fsum(c * p[i] for c, p in zip(cheb, polys) if i < len(p)) for i in range(n)]


def _mul2(lin, p):
    """2 (beta + alpha v) p(v)."""
    out = [mp.mpf(0)] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i] += 2 * lin[0] * c
        out[i + 1] += 2 * lin[1] * c
    return out


def _sub(p, q):
    return [pi - (q[i] if i < len(q) else 0) for i, pi in enumerate(p)]


def _rel_err(f, coefs, lo, hi):
    """Largest relative error of the (unrounded) interpolant on a 400-point grid."""
    worst = mp.mpf(0)
    for j in range(401):
        v = lo + (hi - lo) * j / 400
        exact = f(v)
        worst = max(worst, abs(mp.polyval(coefs[::-1], v) / exact - 1))
    return worst


def small_fits():
    y_hi = mp.mpf(SMALL_X) ** 2 / 4

    def p0(y):
        if y == 0:
            return mp.mpf(1)
        return (mp.besseli(0, 2 * mp.sqrt(y)) - 1) / y

    def p1(y):
        if y == 0:
            return mp.mpf(1) / 2
        return (mp.besseli(1, 2 * mp.sqrt(y)) / mp.sqrt(y) - 1) / y

    return [(f, cheb_monomial(f, mp.mpf(0), y_hi, SMALL_DEGREE), mp.mpf(0), y_hi) for f in (p0, p1)]


def large_map(lo, hi):
    """(k, c) as doubles with s = k/x - c mapping [lo, hi] onto [1, -1]."""
    k = 2.0 / (1.0 / lo - 1.0 / hi)
    c = (1.0 / lo + 1.0 / hi) / (1.0 / lo - 1.0 / hi)
    return k, c


def large_fits(nu, lo, hi, degree):
    k, c = large_map(lo, hi)
    k, c = mp.mpf(k), mp.mpf(c)

    def g(s):
        x = k / (s + c)
        return mp.sqrt(x) * mp.besseli(nu, x) * mp.exp(-x)

    coefs = cheb_monomial(g, -mp.mpf(1), mp.mpf(1), degree)
    return g, coefs, -mp.mpf(1), mp.mpf(1)


def hankel(nu, degree=HANKEL_DEGREE):
    """(2 pi)^-1/2 (-1)^k alpha_k(nu), k = 0..degree."""
    out, c = [], mp.mpf(1)
    for k in range(degree + 1):
        if k:
            c *= mp.mpf((2 * k - 1) ** 2 - 4 * nu * nu) / (8 * k)
        out.append(c / mp.sqrt(2 * mp.pi))
    return out


def _lit(c) -> str:
    return repr(float(c))


def horner(var, coefs, lead, indent):
    """``lead`` followed by the nested Horner form of coefs (lowest first) in var."""
    lits = [_lit(c) for c in coefs]
    lines = [f"{lead}({lits[0]}"]
    lines += [f"{indent}+ {var} * ({c}" for c in lits[1:-1]]
    lines.append(f"{indent}+ {var} * {lits[-1]}" + ")" * (len(lits) - 1))
    return "\n".join(lines)


def _large_function(nu, report):
    body = [
        f"def _i{nu}e_large(x: float) -> float:",
        f'    """e^-x I{nu}(x) for x > {SMALL_X:g}, from fits of sqrt(x) e^-x I{nu}(x)."""',
    ]
    for i, (lo, hi, degree) in enumerate(LARGE_PIECES):
        g, coefs, a, b = large_fits(nu, lo, hi, degree)
        report(f"i{nu}e on ({lo:g}, {hi:g}], degree {degree}", _rel_err(g, coefs, a, b))
        k, c = large_map(lo, hi)
        test = f"x <= {hi!r}" if i == 0 else f"x < {hi!r}"
        body.append(f"    {'if' if i == 0 else 'elif'} {test}:")
        body.append(f"        s = {k!r} / x - {c!r}")
        body.append(horner("s", coefs, "        p = ", "            "))
    body.append("    else:")
    body.append("        s = 1.0 / x")
    body.append(horner("s", hankel(nu), "        p = ", "            "))
    body.append("    return p / math.sqrt(x)")
    return "\n".join(body)


def _difference_function(report):
    hi = LARGE_PIECES[-1][1]
    # k = 0 cancels exactly (alpha_0 = 1 for both orders); the sum starts at s
    pairs = zip(hankel(0, HANKEL_DIFF_DEGREE), hankel(1, HANKEL_DIFF_DEGREE))
    coefs = [c0 - c1 for c0, c1 in pairs][1:]
    # the truncation is largest at the piece's low end
    x = mp.mpf(hi)
    with mp.workdps(80):
        exact = (mp.besseli(0, x) - mp.besseli(1, x)) * mp.exp(-x) * mp.sqrt(x)
    err = abs(mp.polyval([*coefs[::-1], 0], 1 / x) / exact - 1)
    report(f"i0e - i1e at x = {hi:g}, degree {HANKEL_DIFF_DEGREE}", err)
    return "\n".join([
        "def _i0e_minus_i1e_hankel(x: float) -> float:",
        f'    """e^-x (I0(x) - I1(x)) for x >= {hi:g}, from the difference of the two Hankel sums."""',
        "    s = 1.0 / x",
        horner("s", coefs, "    p = s * ", "        "),
        "    return p / math.sqrt(x)",
    ])


def generated_block(report=lambda name, err: None) -> str:
    (f0, c0, lo, hi), (f1, c1, _, _) = small_fits()
    report(f"(I0 - 1)/y on [0, {SMALL_X:g}], degree {SMALL_DEGREE}", _rel_err(f0, c0, lo, hi))
    report(f"(2 I1/x - 1)/y on [0, {SMALL_X:g}], degree {SMALL_DEGREE}", _rel_err(f1, c1, lo, hi))
    parts = [
        "# --- generated by tests/make_bessel_coeffs.py: do not edit by hand ---",
        f"BESSEL_SMALL_X = {SMALL_X!r}",
        "# from here up the kernels are Hankel sums",
        f"_HANKEL_X = {LARGE_PIECES[-1][1]!r}",
        "",
        "",
        "def _i0m1_small(x: float) -> float:",
        f'    """I0(x) - 1 for 0 <= x <= {SMALL_X:g}, as y P(y) with y = x^2/4."""',
        "    y = 0.25 * x * x",
        horner("y", c0, "    return y * ", "        "),
        "",
        "",
        "def _i1_small(x: float) -> float:",
        f'    """I1(x) for 0 <= x <= {SMALL_X:g}, as (x/2) (1 + y Q(y)) with y = x^2/4."""',
        "    y = 0.25 * x * x",
        horner("y", c1, "    return 0.5 * x * (1.0 + y * ", "        ") + ")",
        "",
        "",
        _large_function(0, report),
        "",
        "",
        _large_function(1, report),
        "",
        "",
        _difference_function(report),
        "",
        "",
        "# --- end of generated block ---",
    ]
    return "\n".join(parts) + "\n"


def frozen_points():
    """Piece boundaries, one ulp either side, and a log grid over [1e-300, 1e9]."""
    pts = set()
    for b in (SMALL_X, *(hi for _, hi, _ in LARGE_PIECES)):
        pts.update((math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)))
    pts.update(10.0**e for e in range(-300, -10, 10))
    pts.update(float(mp.mpf(10) ** (mp.mpf(e) / 4)) for e in range(-40, 37))
    pts.update((0.5, 3.0, 14.9, 15.1, 20.0, 50.0, 300.0))
    return sorted(pts)


def frozen_module() -> str:
    lines = [
        '"""Frozen 50-digit mpmath values of the modified Bessel functions I0 and I1.',
        "",
        "Regenerate with ``python tests/make_bessel_coeffs.py --frozen``.  Each row is",
        "(x, i0e(x), i1e(x), I0(x), I1(x)); the plain values are None where",
        "they exceed double range.",
        '"""',
        "",
        "BESSEL_FROZEN = [",
    ]
    for x in frozen_points():
        xm = mp.mpf(x)
        i0, i1 = mp.besseli(0, xm), mp.besseli(1, xm)
        plain = [float(v) if v < sys.float_info.max else None for v in (i0, i1)]
        row = (x, float(i0 * mp.exp(-xm)), float(i1 * mp.exp(-xm)), *plain)
        lines.append(f"    ({', '.join(repr(v) for v in row)}),")
    lines.append("]")
    return "\n".join(lines) + "\n"


def main() -> None:
    mp.mp.dps = 50
    if sys.argv[1:] == ["--frozen"]:
        sys.stdout.write(frozen_module())
        return

    def report(name, err):
        print(f"{name}: max relative error {mp.nstr(err, 3)}", file=sys.stderr)

    sys.stdout.write(generated_block(report))


if __name__ == "__main__":
    main()
