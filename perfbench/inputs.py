"""Seeded workload inputs.

Everything a workload feeds the library is derived here from the seed on
the benchmark's command line, so one seed always yields the same inputs
and hence the same operation counts.  The library only ever receives
``(a, b)`` pairs and CLI flags.  Stdlib only: the worker imports this
module and its memory is part of the measurement.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("paper_repro", "point_sweep", "large_arg", "bound_sweep")

# a is drawn log-uniform over this range (plus a share at a = 0)
A_LO, A_HI = 1e-2, 30.0
# b - a for the deep tail: Q1 from ~1e-22 down to ~1e-305, still normal doubles
DEEP_LO, DEEP_HI = 10.0, 37.5
NEAR_HI = 10.0
ZERO_B_HI = 37.5

# (category, share) of a point draw.  Counts per category are exact, so
# the regime mix -- and with it the cost mix and the deep-tail share --
# is the same for every seed; only the positions inside each category vary.
POINT_MIX = (
    ("zero", 0.05),   # a = 0, b over [0, 37.5]: Q1 = exp(-b^2/2)
    ("below", 0.40),  # b < a: the complement regime, Q1 near 1 when b << a
    ("near", 0.35),   # a <= b <= a + 10: the bulk of the tail
    ("deep", 0.20),   # a + 10 <= b <= a + 37.5: Q1 below ~1e-22
)

LARGE_A = (1e3, 3e3, 1e4, 3e4)
LARGE_B_OFFSETS = (-3.0, 0.0, 3.0)

# preset -> a, for the paper's comparison tables V-VIII
TABLE_A = {"V": 0.1, "VI": 0.1, "VII": 2.0, "VIII": 20.0}
# figure preset -> a, for the figures whose csv carries an exact column
FIGURE_A = {4: 1.0, 5: 10.0, 6: 1.0, 7: 10.0, 8: 0.1, 9: 4.0, 10: 2.0}
SCANS = ("g_negative", "f_dec_eq2", "f_inc_sinh", "chain_eq6", "envelope", "sandwich", "jp_dominance")
ORACLE_FREE_SCANS = tuple(s for s in SCANS if s != "sandwich")


def _rng(stream: str, seed: int) -> random.Random:
    # a string seed is hashed with sha512, so streams are independent
    # and identical across interpreter runs
    return random.Random(f"{stream}:{seed}")


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n uniforms on [0, 1), one in each of n equal strata, in random order."""
    us = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(us)
    return us


def draw_points(stream: str, seed: int, n: int) -> list[tuple[float, float]]:
    """n seeded (a, b) points over both regimes and the deep tail."""
    rng = _rng(stream, seed)
    counts = [int(share * n) for _, share in POINT_MIX]
    counts[1] += n - sum(counts)
    log_span = math.log(A_HI / A_LO)
    points = []
    for (category, _), k in zip(POINT_MIX, counts):
        if k == 0:
            continue
        if category == "zero":
            points += [(0.0, ZERO_B_HI * u) for u in _stratified(rng, k)]
            continue
        a_values = [A_LO * math.exp(log_span * u) for u in _stratified(rng, k)]
        for a, u in zip(a_values, _stratified(rng, k)):
            if category == "below":
                b = a * u
            elif category == "near":
                b = a + NEAR_HI * u
            else:
                b = a + DEEP_LO + (DEEP_HI - DEEP_LO) * u
            points.append((a, b))
    rng.shuffle(points)
    return points


def large_points(seed: int) -> list[tuple[float, float]]:
    """The twelve large-argument points, in a seeded order."""
    points = [(a, a + d) for a in LARGE_A for d in LARGE_B_OFFSETS]
    _rng("large_arg", seed).shuffle(points)
    return points


def repro_commands(seed: int, out_dir: str) -> list[tuple[str, list[str], float | None]]:
    """The 21 paper-reproduction CLI commands as (label, argv, a), seeded order.

    ``a`` is the argument of the csv's ``exact`` column, or None where the
    output has none.  Tables and figures write files under ``out_dir``;
    scans print their report to stdout, as the wrapper scripts and the
    README run them.
    """
    cmds = [
        (f"table_{p}", ["table", "--preset", p, "--out", f"{out_dir}/table_{p}.csv"], a)
        for p, a in TABLE_A.items()
    ]
    cmds += [
        (f"fig{f:02d}", ["figdata", "--figure", str(f), "--out", f"{out_dir}/fig{f:02d}.csv"], FIGURE_A.get(f))
        for f in range(1, 11)
    ]
    cmds += [(f"scan_{s}", ["scan", "--property", s], None) for s in SCANS]
    _rng("paper_repro", seed).shuffle(cmds)
    return cmds
