"""Regenerate the frozen scaled tails used to test q1_trapezoid and q1_bessel_series.

Run from the repository root:

    python tests/make_frozen_trapezoid.py

For each (a, b) the script writes (S, d): d is the double
0.5 * (hi - lo)^2 that ``q1_trapezoid`` returns as its exponent (hi, lo
= max, min of a and b), and S is the 50-digit value times e^d, rounded
to a double.  The value is Q1 for b > a and 1 - Q1 for b < a, each from
the noncentral chi-square Poisson mixture, a sum of positive terms with
no cancellation:

    Q1     = sum_k Pois(k; a^2/2) P[Pois(b^2/2) <= k],
    1 - Q1 = sum_k Pois(k; a^2/2) P[Pois(b^2/2) > k],

with the survival P[Pois(b^2/2) > k] summed term by term, so no 1 - F is
formed.  For b > a the sum over k starts where Pois(k; a^2/2) first
exceeds 1e-60 of its mode, with P[Pois(b^2/2) <= k] there in closed form
(the regularized upper incomplete gamma function Q(k + 1, b^2/2)), and
the CDF is carried up term by term from there.  The sum stops once the
terms fall and the geometric series they are under is below 1e-60 of
the total.  Tails far below the double range, such as Q1(1, 50) =
2.46e-523, keep their digits: mpmath's exponent is unbounded.  The
script prints a dict literal to paste into ``TRAPEZOID_FROZEN``, and
test_oracle.py checks that the pasted table equals ``frozen_tails()``.

It also prints ``Q1_FROZEN_NEAR_TIE``: Q1 itself at points with b < a
within 1 of a, below a = 100, from a 50-digit integral of the Rice
density (see ``near_tie``), and ``Q1_FROZEN_PAST_SPAN``: Q1 itself from
the mixture at points with b just past a + 1, below a = 100 (see
``past_span``).  It takes about 5 s; it is not a test module.
"""

import mpmath as mp

# Q1 at b > a, the route's deep-tail baselines (0, 30) and (30, 67) among
# them; then three points where b - a or its square rounds, so S carries
# that rounding (the last two are where scipy's ncx2.sf is off by 8.2e-6
# and 6.7e-9); then 1 - Q1 at b < a.  Then ab < 1e-3 on either side and
# (97.3, 701.6), where the ulp of d is 3e-11.  The last three are 1 - Q1
# at small ab, where the b < a integrand's parts cancel unless the
# trapezoid takes its expm1 form: 1.5e-14 off at (0.3133, 0.04155), and
# a ConvergenceError at ab = 1e-7
POINTS = [
    (1.0, 30.0), (2.0, 12.0), (0.5, 200.0), (3.0, 80.0), (4.0, 5.0), (20.0, 25.0), (1.0, 50.0),
    (0.0, 30.0), (30.0, 67.0),
    (0.593, 37.229), (7.1403525920058035, 41.18460043448496), (6.27493505783561, 40.55297290545762),
    (20.0, 1.0), (30.0, 2.0),
    (1e-4, 5.0), (0.03, 0.02), (97.3, 701.6),
    (0.3133, 0.04155), (0.23, 0.023), (2.0, 5e-8),
]

# Q1 itself near the tie below a = 100, where q1_reference takes q1_diagonal
NEAR_TIE = [(0.01, 0.0099), (1.0, 0.999999), (5.0, 4.99), (50.0, 49.5), (99.9, 98.95)]

# Q1 itself at b a little past a + 1 below a = 100, where q1_reference pairs
# the trapezoid with the Bessel series and Q1 is not yet small
PAST_SPAN = [(0.5, 1.7), (1.0, 2.5), (10.0, 11.5), (20.0, 23.0), (50.0, 53.0), (99.9, 101.2)]


def mixture(a: float, b: float) -> mp.mpf:
    """Q1(a, b) for b > a, 1 - Q1(a, b) for b < a."""
    lam, y = mp.mpf(a) ** 2 / 2, mp.mpf(b) ** 2 / 2
    if lam == 0:
        return mp.exp(-y)
    complement = b < a
    tiny = mp.mpf(10) ** -60
    k, p_k = 0, mp.exp(-lam)  # Pois(k; lam)
    if not complement:
        # the CDF factor grows with k, so the terms below the first k where
        # Pois(k; lam) exceeds tiny of its mode sum to under tiny of the
        # term at the mode: start there
        k = int(lam)
        top = p_k = mp.exp(-lam + k * mp.log(lam) - mp.loggamma(k + 1))
        while k > 0 and p_k * k / lam >= tiny * top:
            p_k = p_k * k / lam
            k -= 1
    q_k = mp.exp(-y + k * mp.log(y) - mp.loggamma(k + 1))  # Pois(k; y)
    cdf = mp.gammainc(k + 1, y, regularized=True)  # P[Pois(y) <= k] = Q(k + 1, y)
    total = prev = mp.mpf(0)
    while True:
        if complement:
            upper, q_j, j = mp.mpf(0), q_k, k
            while True:  # P[Pois(y) > k], summed up from j = k + 1
                j += 1
                q_j = q_j * y / j
                upper += q_j
                if q_j < tiny * upper:
                    break
            term = p_k * upper
        else:
            term = p_k * cdf
        total += term
        # The pmf, the CDF and the survival function of a Poisson law are
        # log-concave, so the ratio of consecutive terms never grows: once
        # it is below 1, the terms left sum to under a geometric series.
        if term < prev:
            ratio = term / prev
            if term * ratio / (1 - ratio) < tiny * total:
                return total
        prev = term
        k += 1
        p_k = p_k * lam / k
        q_k = q_k * y / k
        cdf += q_k


def frozen_tails() -> dict[tuple[float, float], tuple[float, float]]:
    """(a, b) -> (S, d) at every point of POINTS, at 50 digits."""
    tails = {}
    with mp.workdps(50):
        for a, b in POINTS:
            delta = max(a, b) - min(a, b)
            d = 0.5 * (delta * delta)
            tails[a, b] = (float(mixture(a, b) * mp.exp(mp.mpf(d))), d)
    return tails


def past_span() -> dict[tuple[float, float], float]:
    """(a, b) -> Q1 at every point of PAST_SPAN (all b > a), at 50 digits."""
    with mp.workdps(50):
        return {(a, b): float(mixture(a, b)) for a, b in PAST_SPAN}


def near_tie() -> dict[tuple[float, float], float]:
    """(a, b) -> Q1 at every point of NEAR_TIE (all b < a), at 50 digits.

    Q1 is 1 minus the integral of the Rice density over [0, b], split at
    every integer so each panel holds a smooth piece; it shares no code
    with the mixture.
    """
    values = {}
    with mp.workdps(50):
        for a, b in NEAR_TIE:
            am = mp.mpf(a)

            def rice(x):
                return x * mp.exp(-((x - am) ** 2) / 2) * mp.besseli(0, am * x) * mp.exp(-am * x)

            values[a, b] = float(1 - mp.quad(rice, [0, *range(1, int(b) + 1), mp.mpf(b)]))
    return values


def main() -> None:
    print("TRAPEZOID_FROZEN = {")
    for (a, b), (s, d) in frozen_tails().items():
        print(f"    ({a!r}, {b!r}): ({s!r}, {d!r}),")
    print("}")
    print("Q1_FROZEN_NEAR_TIE = {")
    for (a, b), q in near_tie().items():
        print(f"    ({a!r}, {b!r}): {q!r},")
    print("}")
    print("Q1_FROZEN_PAST_SPAN = {")
    for (a, b), q in past_span().items():
        print(f"    ({a!r}, {b!r}): {q!r},")
    print("}")


if __name__ == "__main__":
    main()
