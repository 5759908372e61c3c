"""The oracle's bits at fixed points.

Each point maps the five oracle methods that answer off the band,
``q1_trapezoid``, ``q1_bessel_series``, ``q1_diagonal``,
``q1_asymptotic`` and ``q1_reference``, to what each gives there: the
``float.hex`` of every float field of its result (``repr`` of the
others), or the class and message of the exception it raises.  The
points cover the twelve ``large_arg`` points of the benchmark, the
dual-weight complement, the trapezoid's doubling of N, 2ab on each side
of ``_TRAPEZOID_CUT``, complements where zeta or ab is 0, a = 0, b = 0,
subnormal arguments, b = a, a >= 100 on both sides of a, the band, a
point whose a and b read alike at six digits, the far tail,
(a - b)^2/2 past the e^-x underflow, and the edges of the expansion's
route below a = 100.  A change that moves
a value on purpose says why, and regenerates the dict from the
repository root with

    PYTHONPATH=src python tests/test_oracle_bits.py
"""

import sys

import pytest

from marcumq.oracle import QArgs, q1_asymptotic, q1_bessel_series, q1_diagonal, q1_reference, q1_trapezoid

POINTS = (
    # the large_arg points: a from 1e3 to 3e4, b - a = -3, 0, 3
    (1000.0, 997.0),
    (1000.0, 1000.0),
    (1000.0, 1003.0),
    (3000.0, 2997.0),
    (3000.0, 3000.0),
    (3000.0, 3003.0),
    (10000.0, 9997.0),
    (10000.0, 10000.0),
    (10000.0, 10003.0),
    (30000.0, 29997.0),
    (30000.0, 30000.0),
    (30000.0, 30003.0),
    # the dual-weight complement, 2ab <= _TRAPEZOID_CUT
    (3.0, 1.0),
    # the trapezoid doubles N once (b << a)
    (62.2462682043616, 0.014559367799381268),
    # 2ab on each side of _TRAPEZOID_CUT = 50, and on it
    (10.0, 2.4),
    (10.0, 2.5),
    (10.0, 2.6),
    (2.0, 12.4),
    (2.5, 10.0),
    (2.0, 12.6),
    # complements where zeta = 0 (b = 0) and where ab underflows to 0
    (3.0, 0.0),
    (2e-200, 1e-200),
    # a = 0, b = 0, subnormal arguments, b = a
    (0.0, 0.0),
    (0.0, 1.5),
    (0.0, 3.0),
    (2.0, 0.0),
    (5e-324, 1.0),
    (1.0, 5e-324),
    (1e-310, 3e-310),
    (3e-310, 1e-310),
    (1.0, 1.0),
    (20.0, 20.0),
    # the band; then, past its ab = 25, the diagonal route beside the
    # expansion, and the trapezoid's node cap near b = a
    (1.0, 2.0),
    (20.0, 20.5),
    (10.0, 10.001),
    # a >= 100 on both sides of a, inside and past the diagonal span
    (150.0, 149.5),
    (150.0, 140.0),
    (150.0, 165.0),
    (600.0, 599.0),
    (600.0, 601.0),
    # refusals that give every digit: a = 1e6 and b = a + 3 read alike with :g
    (1e6, 1e6 + 3.0),
    # the far tail and the complement below a = 100
    (1.0, 30.0),
    (2.0, 40.0),
    (20.0, 1.0),
    (30.0, 5.0),
    # (a - b)^2/2 > 745: 1 - Q1 underflows
    (60.0, 10.0),
    (200.0, 150.0),
    # the expansion's route below a = 100 either side of its edges: ab = 25
    # on the diagonal, (b - a)^2 = ab, d = (b - a)^2/2 = 650, and b = a - 1
    # at a = nextafter(100, 0)
    (4.999999999999999, 4.999999999999999),
    (5.0, 5.0),
    (10.0, 26.18033988749895),
    (10.0, 26.180339887498953),
    (60.0, 96.05551275463989),
    (60.0, 96.0555127546399),
    (99.99999999999999, 98.99999999999999),
)

METHODS = (q1_trapezoid, q1_bessel_series, q1_diagonal, q1_asymptotic, q1_reference)


def _bits(result) -> str:
    """float.hex of a float, and of each float field of a record; repr of the rest."""
    fields = result if isinstance(result, tuple) else (result,)
    return " ".join(v.hex() if type(v) is float else repr(v) for v in fields)


def snapshot(a: float, b: float) -> dict[str, str]:
    """method -> its result's bits, or "Class: message" of what it raises."""
    out = {}
    for method in METHODS:
        try:
            result = method(QArgs(a, b))
        except Exception as exc:  # noqa: BLE001 - the class and message are the frozen datum
            out[method.__name__] = f"{type(exc).__name__}: {exc}"
        else:
            out[method.__name__] = _bits(result)
    return out


# (a, b) -> method -> frozen entry
FROZEN = {
    (1000.0, 997.0): {
        "q1_trapezoid": "0x1.f0e74ac8e8540p-4 0x1.2000000000000p+2 True 32 0x1.ef3e9a3951199p-54",
        "q1_bessel_series": "0x1.f0e74ac8e853fp-4 0x1.2000000000000p+2 True 6339 0x1.db4fa60abbf53p-62",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=1000.0, b=997.0)",
        "q1_asymptotic": "0x1.ff4f5b5925702p-1",
        "q1_reference": "0x1.ff4f5b5925703p-1 0x1.ff4f5b5925703p-1 0x1.ff4f5b5925702p-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (1000.0, 1000.0): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 1000.0",
        "q1_bessel_series": "0x1.001a252442f0bp-1 0x0.0p+0 False 8855 0x1.f6806e61054bfp-62",
        "q1_diagonal": "0x1.001a252442f17p-1",
        "q1_asymptotic": "0x1.001a252442f17p-1",
        "q1_reference": "0x1.001a252442f17p-1 0x1.001a252442f17p-1 0x1.001a252442f17p-1 0x0.0p+0 'asymptotic'",
    },
    (1000.0, 1003.0): {
        "q1_trapezoid": "0x1.f2899d2bef021p-4 0x1.2000000000000p+2 False 32 0x1.f1925ba656990p-54",
        "q1_bessel_series": "0x1.f2899d2bef06bp-4 0x1.2000000000000p+2 False 6359 0x1.db85bd8046b56p-62",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=1000.0, b=1003.0)",
        "q1_asymptotic": "0x1.6272b860ef20cp-10",
        "q1_reference": "0x1.6272b860ef20dp-10 0x1.6272b860ef20dp-10 0x1.6272b860ef20cp-10 0x1.0000000000000p-62 'asymptotic'",
    },
    (3000.0, 2997.0): {
        "q1_trapezoid": "0x1.f172df4c0ff40p-4 0x1.2000000000000p+2 True 34 0x1.f0745a9afd880p-54",
        "q1_bessel_series": "0x1.f172df4c0ff42p-4 0x1.2000000000000p+2 True 19037 0x1.db61efd25d60fp-62",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=3000.0, b=2997.0)",
        "q1_asymptotic": "0x1.ff4f29baabbd7p-1",
        "q1_reference": "0x1.ff4f29baabbd8p-1 0x1.ff4f29baabbd8p-1 0x1.ff4f29baabbd7p-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (3000.0, 3000.0): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 3000.0",
        "q1_bessel_series": "0x1.0008b70c06118p-1 0x0.0p+0 False 26564 0x1.f664537a3989bp-62",
        "q1_diagonal": "0x1.0008b70c06118p-1",
        "q1_asymptotic": "0x1.0008b70c06118p-1",
        "q1_reference": "0x1.0008b70c06118p-1 0x1.0008b70c06118p-1 0x1.0008b70c06118p-1 0x0.0p+0 'asymptotic'",
    },
    (3000.0, 3003.0): {
        "q1_trapezoid": "0x1.f1fe500d95799p-4 0x1.2000000000000p+2 False 34 0x1.f105930ab7476p-54",
        "q1_bessel_series": "0x1.f1fe500d958a4p-4 0x1.2000000000000p+2 False 19057 0x1.db73f789a2de9p-62",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=3000.0, b=3003.0)",
        "q1_asymptotic": "0x1.620fae2fe7693p-10",
        "q1_reference": "0x1.620fae2fe7694p-10 0x1.620fae2fe7694p-10 0x1.620fae2fe7693p-10 0x1.0000000000000p-62 'asymptotic'",
    },
    (10000.0, 9997.0): {
        "q1_trapezoid": "0x1.f1a3b1390ed44p-4 0x1.2000000000000p+2 True 35 0x1.f0cb0bd8ccbbfp-54",
        "q1_bessel_series": "0x1.f1a3b1390f048p-4 0x1.2000000000000p+2 True 63479 0x1.dbdb6e4edde02p-62",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=10000.0, b=9997.0)",
        "q1_asymptotic": "0x1.ff4f185fcf42bp-1",
        "q1_reference": "0x1.ff4f185fcf42ap-1 0x1.ff4f185fcf42ap-1 0x1.ff4f185fcf42bp-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (10000.0, 10000.0): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 10000.0",
        "q1_bessel_series": "DomainError: the Bessel series needs over 100000 recurrence steps at (a=10000.0, b=10000.0)",
        "q1_diagonal": "0x1.00029d5067aa8p-1",
        "q1_asymptotic": "0x1.00029d5067aa9p-1",
        "q1_reference": "0x1.00029d5067aa8p-1 0x1.00029d5067aa8p-1 0x1.00029d5067aa9p-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (10000.0, 10003.0): {
        "q1_trapezoid": "0x1.f1cd863f9161ep-4 0x1.2000000000000p+2 False 35 0x1.f0fb01362993cp-54",
        "q1_bessel_series": "0x1.f1cd863f913f5p-4 0x1.2000000000000p+2 False 63499 0x1.dbe0cf77c8984p-62",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=10000.0, b=10003.0)",
        "q1_asymptotic": "0x1.61ecfe3d0c5fbp-10",
        "q1_reference": "0x1.61ecfe3d0c5f9p-10 0x1.61ecfe3d0c5f9p-10 0x1.61ecfe3d0c5fbp-10 0x1.0000000000000p-61 'asymptotic'",
    },
    (30000.0, 29997.0): {
        "q1_trapezoid": "0x1.f1b1a34148898p-4 0x1.2000000000000p+2 True 36 0x1.f0db1677bca27p-54",
        "q1_bessel_series": "DomainError: the Bessel series needs over 100000 recurrence steps at (a=30000.0, b=29997.0)",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=30000.0, b=29997.0)",
        "q1_asymptotic": "0x1.ff4f136ab4d84p-1",
        "q1_reference": "0x1.ff4f136ab4d83p-1 0x1.ff4f136ab4d83p-1 0x1.ff4f136ab4d84p-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (30000.0, 30000.0): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 30000.0",
        "q1_bessel_series": "DomainError: the Bessel series needs over 100000 recurrence steps at (a=30000.0, b=30000.0)",
        "q1_diagonal": "0x1.0000df1acd34bp-1",
        "q1_asymptotic": "0x1.0000df1acd34bp-1",
        "q1_reference": "0x1.0000df1acd34bp-1 0x1.0000df1acd34bp-1 0x1.0000df1acd34bp-1 0x0.0p+0 'asymptotic'",
    },
    (30000.0, 30003.0): {
        "q1_trapezoid": "0x1.f1bf94ee1c1f3p-4 0x1.2000000000000p+2 False 36 0x1.f0ebdec9848a9p-54",
        "q1_bessel_series": "DomainError: the Bessel series needs over 100000 recurrence steps at (a=30000.0, b=30003.0)",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=30000.0, b=30003.0)",
        "q1_asymptotic": "0x1.61e3148a28f57p-10",
        "q1_reference": "0x1.61e3148a28f56p-10 0x1.61e3148a28f56p-10 0x1.61e3148a28f57p-10 0x1.0000000000000p-62 'asymptotic'",
    },
    (3.0, 1.0): {
        "q1_trapezoid": "0x1.47c26f6aad816p-4 0x1.0000000000000p+1 True 23 0x1.012b24cc35463p-54",
        "q1_bessel_series": "0x1.47c26f6aad815p-4 0x1.0000000000000p+1 True 15 0x1.93c9506ac1011p-65",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=3.0, b=1.0)",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 7 grows before reaching 1e-17 of the sum (arguments outside the expansion's domain)",
        "q1_reference": "0x1.fa748ff65d953p-1 0x1.fa748ff65d953p-1 0x1.fa748ff65d953p-1 0x0.0p+0 'bessel_series'",
    },
    (62.2462682043616, 0.014559367799381268): {
        "q1_trapezoid": "0x1.8d66d37021651p-15 0x1.e4192382905bbp+10 True 19 0x1.8da65974aeb04p-65",
        "q1_bessel_series": "0x1.8d66d37021656p-15 0x1.e4192382905bbp+10 True 4 0x1.c2a48c8085077p-75",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=62.2462682043616, b=0.014559367799381268)",
        "q1_asymptotic": "0x1.0000000000000p+0",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (10.0, 2.4): {
        "q1_trapezoid": "0x1.955aaa65b9f80p-6 0x1.ce147ae147ae1p+4 True 27 0x1.3f2a19ccf33b5p-56",
        "q1_bessel_series": "0x1.955aaa65b9f80p-6 0x1.ce147ae147ae1p+4 True 22 0x1.04703ed5deb39p-66",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=10.0, b=2.4)",
        "q1_asymptotic": "0x1.fffffffffffc1p-1",
        "q1_reference": "0x1.fffffffffffc0p-1 0x1.fffffffffffc0p-1 0x1.fffffffffffc0p-1 0x0.0p+0 'bessel_series'",
    },
    (10.0, 2.5): {
        "q1_trapezoid": "0x1.a349abc996cb0p-6 0x1.c200000000000p+4 True 27 0x1.78f726f5881f7p-56",
        "q1_bessel_series": "0x1.a349abc996cb2p-6 0x1.c200000000000p+4 True 22 0x1.e1b2ffa6f03c7p-65",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=10.0, b=2.5)",
        "q1_asymptotic": "0x1.fffffffffff73p-1",
        "q1_reference": "0x1.fffffffffff73p-1 0x1.fffffffffff73p-1 0x1.fffffffffff73p-1 0x0.0p+0 'bessel_series'",
    },
    (10.0, 2.6): {
        "q1_trapezoid": "0x1.b1667d5f87c20p-6 0x1.b6147ae147ae2p+4 True 24 0x1.567d86e0c79b3p-56",
        "q1_bessel_series": "0x1.b1667d5f87c23p-6 0x1.b6147ae147ae2p+4 True 23 0x1.7dc0b62e9b583p-66",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=10.0, b=2.6)",
        "q1_asymptotic": "0x1.ffffffffffecep-1",
        "q1_reference": "0x1.ffffffffffecep-1 0x1.ffffffffffecep-1 0x1.ffffffffffecep-1 0x0.0p+0 'bessel_series'",
    },
    (2.0, 12.4): {
        "q1_trapezoid": "0x1.872c4081ce7fdp-4 0x1.b0a3d70a3d70bp+5 False 26 0x1.6f0be54662b44p-54",
        "q1_bessel_series": "0x1.872c4081ce7fdp-4 0x1.b0a3d70a3d70bp+5 False 19 0x1.2ec59c32b253cp-64",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=2.0, b=12.4)",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 17 grows before reaching 1e-17 of the sum (arguments outside the expansion's domain)",
        "q1_reference": "0x1.8188baab61617p-82 0x1.8188baab61617p-82 0x1.8188baab61617p-82 0x0.0p+0 'bessel_series'",
    },
    (2.5, 10.0): {
        "q1_trapezoid": "0x1.b14ed46c7e1aep-4 0x1.c200000000000p+4 False 27 0x1.6e0492d8d9a13p-54",
        "q1_bessel_series": "0x1.b14ed46c7e1aep-4 0x1.c200000000000p+4 False 23 0x1.e1b2ffa6f03c7p-65",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=2.5, b=10.0)",
        "q1_asymptotic": "0x1.22b67a475d3abp-44",
        "q1_reference": "0x1.22b67a475d3acp-44 0x1.22b67a475d3acp-44 0x1.22b67a475d3acp-44 0x0.0p+0 'bessel_series'",
    },
    (2.0, 12.6): {
        "q1_trapezoid": "0x1.82ec138aa9cc6p-4 0x1.c170a3d70a3d7p+5 False 25 0x1.2751752d77a45p-54",
        "q1_bessel_series": "0x1.82ec138aa9cc5p-4 0x1.c170a3d70a3d7p+5 False 19 0x1.ec3bfedb11d8ap-65",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=2.0, b=12.6)",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 17 grows before reaching 1e-17 of the sum (arguments outside the expansion's domain)",
        "q1_reference": "0x1.7595b9bc949b8p-85 0x1.7595b9bc949b8p-85 0x1.7595b9bc949b7p-85 0x1.0000000000000p-137 'bessel_series'",
    },
    (3.0, 0.0): {
        "q1_trapezoid": "0x0.0p+0 0x1.2000000000000p+2 True 0 0x0.0p+0",
        "q1_bessel_series": "0x0.0p+0 0x1.2000000000000p+2 True 0 0x0.0p+0",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=3.0, b=0.0)",
        "q1_asymptotic": "0x1.0000000000000p+0",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (2e-200, 1e-200): {
        "q1_trapezoid": "0x0.0p+0 0x0.0p+0 True 0 0x0.0p+0",
        "q1_bessel_series": "0x0.0p+0 0x0.0p+0 True 0 0x0.0p+0",
        "q1_diagonal": "0x1.0000000000000p+0",
        "q1_asymptotic": "ConvergenceError: xi = ab underflows to 0.0 at (a=2e-200, b=1e-200), outside the expansion's domain",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (0.0, 0.0): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 0.0",
        "q1_bessel_series": "0x1.0000000000000p+0 0x0.0p+0 False 1 0x0.0p+0",
        "q1_diagonal": "0x1.0000000000000p+0",
        "q1_asymptotic": "0x1.0000000000000p+0",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'series'",
    },
    (0.0, 1.5): {
        "q1_trapezoid": "0x1.0000000000000p+0 0x1.2000000000000p+0 False 2 0x1.003af9ee7561ap-50",
        "q1_bessel_series": "0x1.0000000000000p+0 0x1.2000000000000p+0 False 1 0x0.0p+0",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=0.0, b=1.5)",
        "q1_asymptotic": "0x1.4c71b2477ab20p-2",
        "q1_reference": "0x1.4c71b2477ab20p-2 0x1.4c71b2477ab20p-2 0x1.4c71b2477ab20p-2 0x0.0p+0 'bessel_series'",
    },
    (0.0, 3.0): {
        "q1_trapezoid": "0x1.0000000000000p+0 0x1.2000000000000p+2 False 2 0x1.003af9ee7561ap-50",
        "q1_bessel_series": "0x1.0000000000000p+0 0x1.2000000000000p+2 False 1 0x0.0p+0",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=0.0, b=3.0)",
        "q1_asymptotic": "0x1.6c0504695c417p-7",
        "q1_reference": "0x1.6c0504695c417p-7 0x1.6c0504695c417p-7 0x1.6c0504695c417p-7 0x0.0p+0 'bessel_series'",
    },
    (2.0, 0.0): {
        "q1_trapezoid": "0x0.0p+0 0x1.0000000000000p+1 True 0 0x0.0p+0",
        "q1_bessel_series": "0x0.0p+0 0x1.0000000000000p+1 True 0 0x0.0p+0",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=2.0, b=0.0)",
        "q1_asymptotic": "0x1.0000000000000p+0",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (5e-324, 1.0): {
        "q1_trapezoid": "0x1.0000000000000p+0 0x1.0000000000000p-1 False 2 0x1.003af9ee7561ap-50",
        "q1_bessel_series": "0x1.0000000000000p+0 0x1.0000000000000p-1 False 2 0x0.0p+0",
        "q1_diagonal": "0x1.368b2fc6f960ap-1",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 0 is inf (xi = ab out of range)",
        "q1_reference": "0x1.368b2fc6f9602p-1 0x1.368b2fc6f95fap-1 0x1.368b2fc6f960ap-1 0x1.0000000000000p-49 'series'",
    },
    (1.0, 5e-324): {
        "q1_trapezoid": "0x0.0p+0 0x1.0000000000000p-1 True 2 0x0.0p+0",
        "q1_bessel_series": "0x0.0p+0 0x1.0000000000000p-1 True 1 0x0.0p+0",
        "q1_diagonal": "0x1.0000000000000p+0",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 1 is inf (xi = ab out of range)",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (1e-310, 3e-310): {
        "q1_trapezoid": "0x1.0000000000000p+0 0x0.0p+0 False 21 0x1.928b855445875p-51",
        "q1_bessel_series": "0x1.0000000000000p+0 0x0.0p+0 False 1 0x0.0p+0",
        "q1_diagonal": "0x1.0000000000000p+0",
        "q1_asymptotic": "ConvergenceError: xi = ab underflows to 0.0 at (a=1e-310, b=3e-310), outside the expansion's domain",
        "q1_reference": "0x1.ffffffffffff2p-1 0x1.fffffffffffe5p-1 0x1.0000000000000p+0 0x1.b000000000000p-49 'series'",
    },
    (3e-310, 1e-310): {
        "q1_trapezoid": "0x0.0p+0 0x0.0p+0 True 0 0x0.0p+0",
        "q1_bessel_series": "0x0.0p+0 0x0.0p+0 True 0 0x0.0p+0",
        "q1_diagonal": "0x1.0000000000000p+0",
        "q1_asymptotic": "ConvergenceError: xi = ab underflows to 0.0 at (a=3e-310, b=1e-310), outside the expansion's domain",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (1.0, 1.0): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 1.0",
        "q1_bessel_series": "0x1.773c058a69984p-1 0x0.0p+0 False 17 0x1.376e1e7b4397ap-67",
        "q1_diagonal": "0x1.773c058a69984p-1",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 4 grows before reaching 1e-17 of the sum (arguments outside the expansion's domain)",
        "q1_reference": "0x1.773c058a6997ap-1 0x1.773c058a6996fp-1 0x1.773c058a69984p-1 0x1.5000000000000p-49 'series'",
    },
    (20.0, 20.0): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 20.0",
        "q1_bessel_series": "0x1.051ba9c4ad268p-1 0x0.0p+0 False 179 0x1.e5e152d4683d8p-62",
        "q1_diagonal": "0x1.051ba9c4ad268p-1",
        "q1_asymptotic": "0x1.051ba9c4ad268p-1",
        "q1_reference": "0x1.051ba9c4ad268p-1 0x1.051ba9c4ad268p-1 0x1.051ba9c4ad268p-1 0x0.0p+0 'asymptotic'",
    },
    (1.0, 2.0): {
        "q1_trapezoid": "0x1.c62ba7ab7349cp-2 0x1.0000000000000p-1 False 33 0x1.a283736554552p-52",
        "q1_bessel_series": "0x1.c62ba7ab7349bp-2 0x1.0000000000000p-1 False 16 0x1.fe2b17f59b53ep-64",
        "q1_diagonal": "0x1.1377e5c055d57p-2",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 6 grows before reaching 1e-17 of the sum (arguments outside the expansion's domain)",
        "q1_reference": "0x1.1377e5c055d50p-2 0x1.1377e5c055d49p-2 0x1.1377e5c055d57p-2 0x1.c000000000000p-51 'series'",
    },
    (20.0, 20.5): {
        "q1_trapezoid": "0x1.7029a4e34d117p-2 0x1.0000000000000p-3 False 163 0x1.597321c2286b0p-52",
        "q1_bessel_series": "0x1.7029a4e34d114p-2 0x1.0000000000000p-3 False 172 0x1.433b4df88dc52p-62",
        "q1_diagonal": "0x1.44e704dc02524p-2",
        "q1_asymptotic": "0x1.44e704dc02522p-2",
        "q1_reference": "0x1.44e704dc02524p-2 0x1.44e704dc02524p-2 0x1.44e704dc02522p-2 0x1.0000000000000p-53 'asymptotic'",
    },
    (10.0, 10.001): {
        "q1_trapezoid": "ConvergenceError: the trapezoid needs 1.03e+05 nodes at (a=10.0, b=10.001), over the cap of 4096",
        "q1_bessel_series": "0x1.0a0578c1408e7p-1 0x1.0c6f7a0b5d91bp-21 False 92 0x1.526f7da6543bep-62",
        "q1_diagonal": "0x1.0a057009b4261p-1",
        "q1_asymptotic": "0x1.0a057009b4260p-1",
        "q1_reference": "0x1.0a057009b4261p-1 0x1.0a057009b4261p-1 0x1.0a057009b4260p-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (150.0, 149.5): {
        "q1_trapezoid": "0x1.64a595f6a9625p-2 0x1.0000000000000p-3 True 175 0x1.4eef6c123aee0p-52",
        "q1_bessel_series": "0x1.64a595f6a963dp-2 0x1.0000000000000p-3 True 1253 0x1.f0d41b19e0c0ep-62",
        "q1_diagonal": "0x1.62a151111dbc5p-1",
        "q1_asymptotic": "0x1.62a151111dbc6p-1",
        "q1_reference": "0x1.62a151111dbc5p-1 0x1.62a151111dbc5p-1 0x1.62a151111dbc6p-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (150.0, 140.0): {
        "q1_trapezoid": "0x1.388e9eb3a5868p-5 0x1.9000000000000p+5 True 16 0x1.36a0395605702p-55",
        "q1_bessel_series": "0x1.388e9eb3a5867p-5 0x1.9000000000000p+5 True 487 0x1.2fc0fa03e31a9p-62",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=150.0, b=140.0)",
        "q1_asymptotic": "0x1.0000000000000p+0",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'asymptotic'",
    },
    (150.0, 165.0): {
        "q1_trapezoid": "0x1.c71bcbc70c2e8p-6 0x1.c200000000000p+6 False 16 0x1.c4d787a537b6dp-56",
        "q1_bessel_series": "0x1.c71bcbc70c2ebp-6 0x1.c200000000000p+6 False 382 0x1.cde5ae562441ep-63",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=150.0, b=165.0)",
        "q1_asymptotic": "0x1.70d894f2bf15dp-168",
        "q1_reference": "0x1.70d894f2bf15bp-168 0x1.70d894f2bf15bp-168 0x1.70d894f2bf15dp-168 0x1.0000000000000p-219 'asymptotic'",
    },
    (600.0, 599.0): {
        "q1_trapezoid": "0x1.0b83fe3bb42a6p-2 0x1.0000000000000p-1 True 91 0x1.037cc16d4fdcdp-52",
        "q1_bessel_series": "0x1.0b83fe3bb4271p-2 0x1.0000000000000p-1 True 4743 0x1.ec149342e76b4p-62",
        "q1_diagonal": "0x1.aedf2de2e0438p-1",
        "q1_asymptotic": "0x1.aedf2de2e0439p-1",
        "q1_reference": "0x1.aedf2de2e0438p-1 0x1.aedf2de2e0438p-1 0x1.aedf2de2e0439p-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (600.0, 601.0): {
        "q1_trapezoid": "0x1.0c324b33f3ac2p-2 0x1.0000000000000p-1 False 91 0x1.045a78fdb8f20p-52",
        "q1_bessel_series": "0x1.0c324b33f3ac7p-2 0x1.0000000000000p-1 False 4751 0x1.f2df813cc578ap-62",
        "q1_diagonal": "0x1.4556b86d6e3e8p-3",
        "q1_asymptotic": "0x1.4556b86d6e3e9p-3",
        "q1_reference": "0x1.4556b86d6e3e8p-3 0x1.4556b86d6e3e8p-3 0x1.4556b86d6e3e9p-3 0x1.0000000000000p-55 'asymptotic'",
    },
    (1000000.0, 1000003.0): {
        "q1_trapezoid": "0x1.f1b8d1aea9627p-4 0x1.2000000000000p+2 False 40 0x1.f0e82939254eap-54",
        "q1_bessel_series": "DomainError: the Bessel series needs over 100000 recurrence steps at (a=1000000.0, b=1000003.0)",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=1000000.0, b=1000003.0)",
        "q1_asymptotic": "0x1.61de45aa1659dp-10",
        "q1_reference": "0x1.61de45aa1659dp-10 0x1.61de45aa1659dp-10 0x1.61de45aa1659dp-10 0x0.0p+0 'asymptotic'",
    },
    (1.0, 30.0): {
        "q1_trapezoid": "0x1.35bee3fd92194p-4 0x1.a480000000000p+8 False 20 0x1.f86ce27b8914ap-55",
        "q1_bessel_series": "0x1.35bee3fd92194p-4 0x1.a480000000000p+8 False 12 0x1.def8b4583018dp-67",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=1.0, b=30.0)",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 9 grows before reaching 1e-17 of the sum (arguments outside the expansion's domain)",
        "q1_reference": "0x1.89e5b33c4aa54p-611 0x1.89e5b33c4aa54p-611 0x1.89e5b33c4aa54p-611 0x0.0p+0 'bessel_series'",
    },
    (2.0, 40.0): {
        "q1_trapezoid": "0x1.8115aaf38fd8ap-5 0x1.6900000000000p+9 False 16 0x1.463f882898c22p-55",
        "q1_bessel_series": "0x1.8115aaf38fd8cp-5 0x1.6900000000000p+9 False 14 0x1.3a81b477f04aep-67",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=2.0, b=40.0)",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 4 grows before reaching 1e-17 of the sum (arguments outside the expansion's domain)",
        "q1_reference": "0x0.000000f98e00ap-1022 0x0.000000f98e00ap-1022 0x0.000000f98e00ap-1022 0x0.0p+0 'bessel_series'",
    },
    (20.0, 1.0): {
        "q1_trapezoid": "0x1.2ca035f530033p-8 0x1.6900000000000p+7 True 24 0x1.f52e5bbbb19fcp-59",
        "q1_bessel_series": "0x1.2ca035f530033p-8 0x1.6900000000000p+7 True 12 0x1.444b204efdcd4p-66",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=20.0, b=1.0)",
        "q1_asymptotic": "ConvergenceError: asymptotic series term 10 grows before reaching 1e-17 of the sum (arguments outside the expansion's domain)",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (30.0, 5.0): {
        "q1_trapezoid": "0x1.a8eb45e9ed331p-8 0x1.3880000000000p+8 True 16 0x1.742c83e509e0bp-58",
        "q1_bessel_series": "0x1.a8eb45e9ed332p-8 0x1.3880000000000p+8 True 22 0x1.37743a7b8d547p-67",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=30.0, b=5.0)",
        "q1_asymptotic": "0x1.0000000000000p+0",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (60.0, 10.0): {
        "q1_trapezoid": "0x1.aa7064b39f9cep-9 0x1.3880000000000p+10 True 15 0x1.75f47001f59d3p-59",
        "q1_bessel_series": "0x1.aa7064b39f9cep-9 0x1.3880000000000p+10 True 22 0x1.2a9687007f14ep-66",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=60.0, b=10.0)",
        "q1_asymptotic": "0x1.0000000000000p+0",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'bessel_series'",
    },
    (200.0, 150.0): {
        "q1_trapezoid": "0x1.c4a30bedb3388p-8 0x1.3880000000000p+10 True 16 0x1.ae109e8207327p-58",
        "q1_bessel_series": "0x1.c4a30bedb3389p-8 0x1.3880000000000p+10 True 136 0x1.e0060c266c08fp-65",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=200.0, b=150.0)",
        "q1_asymptotic": "0x1.0000000000000p+0",
        "q1_reference": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 'asymptotic'",
    },
    (4.999999999999999, 4.999999999999999): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 4.999999999999999",
        "q1_bessel_series": "0x1.1487c697a1869p-1 0x0.0p+0 False 50 0x1.85651cb193946p-64",
        "q1_diagonal": "0x1.1487c697a1868p-1",
        "q1_asymptotic": "0x1.1487c697a1867p-1",
        "q1_reference": "0x1.1487c697a1861p-1 0x1.1487c697a185ap-1 0x1.1487c697a1868p-1 0x1.c000000000000p-50 'series'",
    },
    (5.0, 5.0): {
        "q1_trapezoid": "DomainError: the trapezoid needs b != a, got a = b = 5.0",
        "q1_bessel_series": "0x1.1487c697a1869p-1 0x0.0p+0 False 50 0x1.85651cb19397cp-64",
        "q1_diagonal": "0x1.1487c697a1868p-1",
        "q1_asymptotic": "0x1.1487c697a1867p-1",
        "q1_reference": "0x1.1487c697a1868p-1 0x1.1487c697a1868p-1 0x1.1487c697a1867p-1 0x1.0000000000000p-53 'asymptotic'",
    },
    (10.0, 26.18033988749895): {
        "q1_trapezoid": "0x1.461da5bb6f377p-5 0x1.05cdab8c75b92p+7 False 16 0x1.368abe465a33dp-55",
        "q1_bessel_series": "0x1.461da5bb6f378p-5 0x1.05cdab8c75b92p+7 False 39 0x1.dbcbebd1ccb4dp-64",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=10.0, b=26.18033988749895)",
        "q1_asymptotic": "0x1.698a03ca05172p-194",
        "q1_reference": "0x1.698a03ca05174p-194 0x1.698a03ca05174p-194 0x1.698a03ca05172p-194 0x1.0000000000000p-245 'asymptotic'",
    },
    (10.0, 26.180339887498953): {
        "q1_trapezoid": "0x1.461da5bb6f373p-5 0x1.05cdab8c75b94p+7 False 16 0x1.368abe465a33ap-55",
        "q1_bessel_series": "0x1.461da5bb6f373p-5 0x1.05cdab8c75b94p+7 False 39 0x1.dbcbebd1ccb1fp-64",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=10.0, b=26.180339887498953)",
        "q1_asymptotic": "0x1.698a03ca05004p-194",
        "q1_reference": "0x1.698a03ca05006p-194 0x1.698a03ca05006p-194 0x1.698a03ca05006p-194 0x0.0p+0 'bessel_series'",
    },
    (60.0, 96.05551275463989): {
        "q1_trapezoid": "0x1.ca78b98f96582p-7 0x1.4500000000000p+9 False 15 0x1.bf9731a48d9a6p-57",
        "q1_bessel_series": "0x1.ca78b98f96582p-7 0x1.4500000000000p+9 False 84 0x1.dc71b37b0d7a4p-65",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=60.0, b=96.05551275463989)",
        "q1_asymptotic": "0x1.1045f9b1928fep-944",
        "q1_reference": "0x1.1045f9b1928fep-944 0x1.1045f9b1928fep-944 0x1.1045f9b1928fep-944 0x0.0p+0 'asymptotic'",
    },
    (60.0, 96.0555127546399): {
        "q1_trapezoid": "0x1.ca78b98f963b0p-7 0x1.4500000000004p+9 False 15 0x1.bf9731a48d7e0p-57",
        "q1_bessel_series": "0x1.ca78b98f963adp-7 0x1.4500000000004p+9 False 84 0x1.dc71b37b0d72ap-65",
        "q1_diagonal": "DomainError: the diagonal route covers |b - a| <= 1, got (a=60.0, b=96.0555127546399)",
        "q1_asymptotic": "0x1.1045f9b191f66p-944",
        "q1_reference": "0x1.1045f9b191f68p-944 0x1.1045f9b191f68p-944 0x1.1045f9b191f66p-944 0x1.0000000000000p-995 'bessel_series'",
    },
    (99.99999999999999, 98.99999999999999): {
        "q1_trapezoid": "0x1.09cef52a28668p-2 0x1.0000000000000p-1 True 85 0x1.018fd0bb3b2d8p-52",
        "q1_bessel_series": "0x1.09cef52a28668p-2 0x1.0000000000000p-1 True 787 0x1.e98a44b22dfdfp-62",
        "q1_diagonal": "0x1.af63b7890f4b4p-1",
        "q1_asymptotic": "0x1.af63b7890f4b4p-1",
        "q1_reference": "0x1.af63b7890f4b4p-1 0x1.af63b7890f4b4p-1 0x1.af63b7890f4b4p-1 0x0.0p+0 'asymptotic'",
    },
}


@pytest.mark.parametrize("point", POINTS, ids=repr)
def test_oracle_bits(point):
    assert snapshot(*point) == FROZEN[point]


def test_frozen_covers_every_point():
    assert list(FROZEN) == list(POINTS)


if __name__ == "__main__":
    rows = []
    for a, b in POINTS:
        rows.append(f"    ({a!r}, {b!r}): {{")
        rows += [f'        "{k}": "{v}",' for k, v in snapshot(a, b).items()]
        rows.append("    },")
    sys.stdout.write("FROZEN = {\n" + "\n".join(rows) + "\n}\n")
