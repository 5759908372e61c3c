"""The 50-digit Poisson mixture: a second witness for ``truth.py``; not a test module.

Q1 and its complement are sums of positive terms with no cancellation
(Q1(a, b) is the survival of a noncentral chi-square law with 2 degrees
of freedom and noncentrality a^2 at b^2):

    Q1     = sum_k Pois(k; a^2/2) P[Pois(b^2/2) <= k],
    1 - Q1 = sum_k Pois(k; a^2/2) P[Pois(b^2/2) > k],

with the survival P[Pois(b^2/2) > k] summed term by term, so no 1 - F is
formed.  For b > a the sum over k starts where Pois(k; a^2/2) first
exceeds 1e-60 of its mode, with P[Pois(b^2/2) <= k] there in closed form
(the regularized upper incomplete gamma function Q(k + 1, b^2/2)), and
the CDF is carried up term by term from there.  The sum stops once the
terms fall and the geometric series they are under is below 1e-60 of
the total.  Tails far below the double range, such as Q1(1, 50) =
2.46e-523, keep their digits: mpmath's exponent is unbounded.

It shares no formula with Simon's integral, which ``truth.py`` and the
trapezoid both sum, so the suite recomputes two frozen tables from it,
in about 0.7 s: ``TRAPEZOID_FROZEN`` (``scaled_tails``) and
``Q1_FROZEN_PAST_SPAN`` (``q1_above``).  It is slow at large b, so it
witnesses no other table.
"""

import mpmath as mp


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


def scaled_tails(points) -> dict[tuple[float, float], tuple[float, float]]:
    """(a, b) -> (S, d) at 50 digits, as ``truth.q1_tail`` gives them below d = 2^52."""
    tails = {}
    with mp.workdps(50):
        for a, b in points:
            delta = max(a, b) - min(a, b)
            d = 0.5 * (delta * delta)
            tails[a, b] = (float(mixture(a, b) * mp.exp(mp.mpf(d))), d)
    return tails


def q1_above(points) -> dict[tuple[float, float], float]:
    """(a, b) -> Q1 at 50 digits, at points with b > a."""
    with mp.workdps(50):
        return {(a, b): float(mixture(a, b)) for a, b in points}
