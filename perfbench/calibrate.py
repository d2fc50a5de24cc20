"""Machine-speed reference for the throughput metric.

The benchmark shares its cores with other tenants, whose load makes the
same code 10-40 % slower for minutes at a time, so runs of the same code
spread by up to a quarter.  A workload process therefore times this fixed
kernel, which never calls ctrwpricer, between ops (at most once every
CALIBRATE_EVERY_S seconds, outside the timed region).  The median kernel
time of a run over NOMINAL_S is the run's slowness; multiplying a
throughput by it gives the throughput at the nominal machine speed; over
ten 20-second runs this cut the spread of point-mix's throughput from
0.174 to 0.072 of its median (README.md has every workload's figures).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

CALIBRATE_EVERY_S = 1.0
NOMINAL_S = 0.020  # the kernel's time on the 2-core machine the benchmark was defined on


def kernel() -> float:
    """About 20 ms of scalar Python, vector numpy and small numpy calls."""
    s = 0.0
    for i in range(1, 30000):
        s += math.exp(-i * 1e-5) * math.sqrt(i) / (1.0 + i)
    w = np.linspace(0.1, 50.0, 4096)
    for i in range(30):
        s += float((np.exp(-1j * w * (1.0 + 0.01 * i)) / (1.0 + 1j * w) ** 2).real.sum())
    for i in range(2000):
        s += float(np.sqrt(np.float64(i)) + np.exp(np.float64(-i * 1e-3)))
    return s


class Calibration:
    """Kernel times taken between ops."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def maybe_measure(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            t0 = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)

    def slowness(self) -> float:
        """Median kernel time over its nominal time (1.0 = nominal speed)."""
        return statistics.median(self.samples) / NOMINAL_S
