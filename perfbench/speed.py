"""A speed probe: how fast this machine runs Fraction-heavy Python right now.

The machine the benchmark was tuned on (2 vCPUs, shared) runs the same
code at two speeds, 1.6-1.9x apart, and stays in either for seconds to
minutes; a whole run can fall into the slow one.  The probe times a fixed
max-plus product written here, not in the program, so no change to the
program moves it.  Timings divided by the probe's current duration and
multiplied by NOMINAL_S are in "nominal" seconds: the seconds they would
take where the probe takes NOMINAL_S, which is this machine's fast speed.
A request's time over the probe's stays within a few per cent across
both speeds, except when the speed changes between the two probes that
bracket it; such timings are set aside when the same request has others.
The slow speed does not slow all code alike: over 150 s the probe slowed
1.81x, random_analyze requests 1.72x and n=7 extremal_check requests
1.68x, so a run spent at the slow speed reads up to 5-15% faster in
nominal seconds than one spent at the fast speed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

NOMINAL_S = 0.0033  # one probe product at the fast speed of the tuning machine
INTERVAL_S = 0.25  # least time between two probes during a pass
STEADY = 1.1  # two probes further apart than this ratio bracket a change of speed


def _operands(n: int = 12) -> list[list[Fraction]]:
    rng = random.Random(0)
    return [[Fraction(rng.randint(-36, 36), rng.choice((1, 2, 3, 4))) for _ in range(n)] for _ in range(n)]


class Probe:
    """Probe samples in time order; `factor` converts seconds to nominal seconds."""

    def __init__(self):
        self._a = _operands()
        self.samples: list[tuple[float, float]] = []  # (when, probe seconds)

    def measure(self) -> int:
        """Take a sample (least of two products); return its index."""
        a, n = self._a, len(self._a)
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            [[max(a[i][k] + a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            best = min(best, time.perf_counter() - start)
        self.samples.append((time.perf_counter(), best))
        return len(self.samples) - 1

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S

    def factor(self, index: int) -> float:
        """Nominal over measured speed, from the samples at index and index + 1."""
        pair = [s for _, s in self.samples[index : index + 2]]
        return NOMINAL_S * len(pair) / sum(pair)

    def steady(self, index: int) -> bool:
        """Did the speed stay put between the samples at index and index + 1?"""
        pair = [s for _, s in self.samples[index : index + 2]]
        return max(pair) <= STEADY * min(pair)
