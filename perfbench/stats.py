"""The percentile rule and the host-speed calibration of the benchmark's timings."""

from __future__ import annotations

import math

# a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """Fewest samples for which percentile ``q`` has MIN_BEYOND beyond it."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises ValueError when fewer than MIN_BEYOND samples lie above the
    rank, since such a tail value rests on a handful of observations.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


# -- host-speed calibration ---------------------------------------------
#
# The benchmark shares its host, whose speed drifts by up to ~1.8x over
# seconds as other tenants come and go.  A fixed pure-Python loop that
# shares no code with the library is timed at least every CAL_EVERY_NS
# between operations, and each operation's latency is rescaled by
# CAL_REF_NS / (the mean of the loop times just before and after it):
# times are reported as they would read on a host where the loop takes
# exactly CAL_REF_NS.  A change to the library cannot move the
# loop, so it moves the rescaled times as much as the raw ones.

CAL_REF_NS = 500_000
CAL_EVERY_NS = 10_000_000


def cal_loop() -> float:
    """Fixed work: a list built with float math, sorted and summed, ~0.5 ms.

    Of the loops tried, this one's slow-down tracked the library's most
    closely when the host slowed.
    """
    xs = [math.exp(-i * 1e-3) * (i % 7) for i in range(2000)]
    return sum(sorted(xs))


class Calibrator:
    """Times cal_loop at least every CAL_EVERY_NS of the caller's work."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.samples: list[int] = []
        self._due = 0

    def sample(self) -> None:
        t0 = self.clock()
        cal_loop()
        t1 = self.clock()
        self.samples.append(t1 - t0)
        self._due = t1 + CAL_EVERY_NS

    def tick(self) -> None:
        """Sample if the last sample is older than CAL_EVERY_NS."""
        if self.clock() >= self._due:
            self.sample()

    def scale(self, since: int) -> float:
        """Mean rescaling factor of the samples from index ``since`` on."""
        window = self.samples[since:]
        return CAL_REF_NS * len(window) / sum(window)
