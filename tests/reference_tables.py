"""Published 5-decimal reference data for the four comparison presets.

Each row maps b -> (exact, first bound, its eps %, second bound, its
eps %), where eps = 100 |bound - exact| / exact was computed by the
original source from unrounded values.  The exact column is treated as
a regression target for the oracle, never as the oracle itself.

``lb2a_printed`` is LB2A as the paper prints it, without the zeta factor
on its erfc term; the catalog evaluates the corrected form.
``frozen_full_range_quadrature`` is the oracle's quadrature over its
full range, in either direction.
"""

import math

from marcumq.bounds import compute_zeta
from marcumq.oracle import QArgs, _adaptive_quad, rice_pdf
from marcumq.specfun import erfc_diff

# preset V: a = 0.1, upper bounds UB1JP / UB1A
TABLE_V = {
    0.1: (0.99503, 1.02133, 2.6423, 1.11416, 11.9718),
    0.2: (0.98029, 1.00410, 2.4284, 1.08848, 11.0360),
    0.3: (0.95621, 0.97762, 2.2384, 1.05381, 10.2070),
    0.4: (0.92348, 0.94259, 2.0689, 1.01093, 9.4697),
    0.5: (0.88304, 0.89997, 1.9172, 0.96085, 8.8114),
    0.6: (0.83602, 0.85091, 1.7810, 0.90475, 8.2212),
    0.7: (0.78366, 0.79665, 1.6582, 0.84393, 7.6908),
    0.8: (0.72730, 0.73856, 1.5471, 0.77976, 7.2113),
    0.9: (0.66832, 0.67799, 1.4464, 0.71362, 6.7784),
    1.0: (0.60804, 0.61628, 1.3548, 0.64686, 6.3846),
}

# preset VI: a = 0.1, lower bounds LB1JP / LB1A
TABLE_VI = {
    0.1: (0.99503, 0.99338, 0.1664, 0.12408, 87.5293),
    0.2: (0.98029, 0.97866, 0.1664, 0.22615, 76.9303),
    0.3: (0.95621, 0.95462, 0.1663, 0.30711, 67.8826),
    0.4: (0.92348, 0.92194, 0.1663, 0.36822, 60.1263),
    0.5: (0.88304, 0.88157, 0.1663, 0.41105, 53.4499),
    0.6: (0.83602, 0.83463, 0.1662, 0.43740, 47.6802),
    0.7: (0.78366, 0.78235, 0.1662, 0.44923, 42.6752),
    0.8: (0.72731, 0.72616, 0.1661, 0.44862, 38.3174),
    0.9: (0.66832, 0.66721, 0.1660, 0.43768, 34.5097),
    1.0: (0.60804, 0.60703, 0.1660, 0.41851, 31.1712),
}

# preset VII: a = 2, upper bounds UB2JP / UB2A
TABLE_VII = {
    1.0: (0.91810, 0.91883, 0.0797, 0.93517, 1.8587),
    1.1: (0.89807, 0.89913, 0.1179, 0.91929, 2.3626),
    1.2: (0.87533, 0.87701, 0.1914, 0.90118, 2.9528),
    1.3: (0.84985, 0.85254, 0.3164, 0.88081, 3.6426),
    1.4: (0.82164, 0.82584, 0.5118, 0.85819, 4.4488),
    1.5: (0.79076, 0.79708, 0.7989, 0.83340, 5.3922),
    1.6: (0.75736, 0.76647, 1.2019, 0.80658, 6.4981),
    1.7: (0.72164, 0.73426, 1.7486, 0.77791, 7.7979),
    1.8: (0.68386, 0.70076, 2.4715, 0.74767, 9.3301),
    1.9: (0.64436, 0.66632, 3.4089, 0.71615, 11.1419),
    2.0: (0.60350, 0.63130, 4.6076, 0.68371, 13.2922),
}

# preset VIII: a = 20, lower bounds LB2JP / LB2A
TABLE_VIII = {
    19.1: (0.82267, 0.82007, 0.3161, 0.80424, 2.2393),
    19.2: (0.79546, 0.79235, 0.3904, 0.77341, 2.7711),
    19.3: (0.76591, 0.76223, 0.4809, 0.73971, 3.4201),
    19.4: (0.73414, 0.72980, 0.5909, 0.70322, 4.2116),
    19.5: (0.70032, 0.69524, 0.7249, 0.66406, 5.1770),
    19.6: (0.66467, 0.65877, 0.8879, 0.62243, 6.3550),
    19.7: (0.62748, 0.62066, 1.0865, 0.57858, 7.7936),
    19.8: (0.58906, 0.58123, 1.3287, 0.53279, 9.5528),
    19.9: (0.54976, 0.54083, 1.6246, 0.48540, 11.7077),
    20.0: (0.50997, 0.49984, 1.9869, 0.43677, 14.3531),
}

VALUE_TOL = 1e-4  # columns are printed to 5 decimals
EPS_TOL = 1e-2  # eps columns to 4 decimals, from rounded inputs


def lb2a_printed(a: float, b: float) -> float:
    """LB2A as printed: 1 - e^(-(a^2-z^2)/2) (head + sqrt(pi/2) tail), z = zeta."""
    z = compute_zeta(QArgs(a, b))
    scale = math.exp(-0.5 * (a * a - z * z))
    head = math.exp(-0.5 * z * z) - math.exp(-0.5 * (b - z) ** 2)
    tail = erfc_diff(-z / math.sqrt(2.0), (b - z) / math.sqrt(2.0))
    return 1.0 - scale * (head + math.sqrt(math.pi / 2.0) * tail)


def frozen_full_range_quadrature(a: float, b: float, form: str) -> float:
    """q1_quadrature as it was with the full range: [b, max(a, b) + 40] in
    the "tail" form and 1 - [0, b] in the "complement" form.  A frozen
    copy of the range, so a change to the library's range cannot move the
    reference it is compared with.  The library's route is the tail for
    b >= a and the complement for b < a; the other form checks it."""
    if b == 0.0:
        return 1.0
    seeds = [a + d for d in (-30, -20, -10, -5, -2, -1, 0, 1, 2, 5, 10, 20, 30)]
    integrand = lambda x: rice_pdf(x, a)
    if form == "tail":
        return _adaptive_quad(integrand, b, max(a, b) + 40.0, seeds)
    return 1.0 - _adaptive_quad(integrand, 0.0, b, seeds)
