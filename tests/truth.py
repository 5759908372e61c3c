"""50-digit truths for Q1 from Simon's finite-range integral; not a test module.

With lo, hi = min(a, b), max(a, b), zeta = lo/hi, w = 1 - zeta,
d = (b - a)^2/2 and v = sin^2(phi/2) (Simon, IEEE Commun. Lett. 2(2), 1998),

    Q1(a, b)     = e^-d S   (b > a),   S = (1/pi) int_0^pi (w + 2 zeta v)/D e^(-2ab v) dphi,
    1 - Q1(a, b) = e^-d S   (b < a),   S = (1/pi) int_0^pi zeta (w - 2v)/D e^(-2ab v) dphi,

with D = w^2 + 4 zeta v, and Q1(a, a) = (1 + e^-a^2 I0(a^2))/2 in closed
form.  ``mp.quad`` takes S at 50 digits, with breakpoints where the
Gaussian factor falls, at k/sqrt(ab) for k = 1/4 ... 32, and where the
Poisson kernel does, at k w for k = 1/4, 1, 4.  Nothing is formed as a
difference of nearly equal numbers, so it holds at any a, b up to
sqrt(DBL_MAX).  ``make_frozen_q1.py`` takes every frozen Q1 value of the
tests from it, and ``mixture.py`` is its second witness.
"""

import mpmath as mp


def q1_tail(a: float, b: float) -> tuple[mp.mpf, float, bool]:
    """(S, d, complement) at the doubles (a, b): S at 50 digits, d a double.

    d is the double 0.5 * (hi - lo)^2 that ``q1_trapezoid`` and
    ``q1_bessel_series`` return as their exponent, and S is the value
    times e^d, so S e^-d is Q1 (b > a) or 1 - Q1 (b < a).  From d = 2^52
    on, where those methods return the integral alone, so does S.  At
    b = a, S is Q1 itself, with d = 0.
    """
    with mp.workdps(50):
        if a == b:
            x = mp.mpf(a) ** 2
            return (1 + mp.besseli(0, x) * mp.exp(-x)) / 2, 0.0, False
        complement = b < a
        lo, hi = (mp.mpf(b), mp.mpf(a)) if complement else (mp.mpf(a), mp.mpf(b))
        zeta, w, ab = lo / hi, (hi - lo) / hi, lo * hi

        def f(phi):
            v = mp.sin(phi / 2) ** 2
            p = zeta * (w - 2 * v) if complement else w + 2 * zeta * v
            return p / (w * w + 4 * zeta * v) * mp.exp(-2 * ab * v)

        # in phi = u t, u the narrower of the two widths: mp.quad loses
        # digits on intervals as short as 1e-150 (5e-10 at a = 1e150)
        cuts = [k * w for k in (0.25, 1, 4)]
        u = w
        if ab > 0:
            g = 1 / mp.sqrt(ab)
            cuts += [k * g for k in (0.25, 0.5, 1, 2, 4, 8, 16, 32)]
            u = min(u, g)
        ends = [0, *sorted(c / u for c in cuts if c < mp.pi), mp.pi / u]
        s = mp.quad(lambda t: f(u * t), ends) * u / mp.pi
        delta = abs(b - a)
        d = 0.5 * delta * delta
        if d < 2.0**52:
            s *= mp.exp(d - (hi - lo) ** 2 / 2)
        return s, d, complement


def q1(a: float, b: float) -> mp.mpf:
    """Q1(a, b) at 50 digits."""
    s, d, complement = q1_tail(a, b)
    with mp.workdps(50):
        tail = s * mp.exp(-d)
        return 1 - tail if complement else tail
