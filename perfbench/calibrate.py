"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of one core drifts by up to 2x over minutes
while other tenants' load comes and goes, and CPU time drifts with wall
time, so repeated samples alone do not make a throughput steady.  A fixed
kernel that does not touch lramimo is timed next to every repetition and
every set-up launch; its time over ``NOMINAL_S`` is the machine's slowdown
at that moment, and each end-to-end time is scaled by the slowdown
measured next to it.  The kernel has one part per kind of work the
workloads do, each timed on its own:

- ``lapack``: small LAPACK calls through numpy (interpreter and call overhead);
- ``python``: ``Fraction`` arithmetic (pure interpreter);
- ``gemm``: a cache-resident BLAS matrix product;
- ``cache``: elementwise passes over an array that fits in L2;
- ``memory``: a skinny product and column argmin over an 8 MB matrix, the
  shape of the ML oracle's distance search.
"""

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Kernel part times at nominal machine speed (a quiet 2.1 GHz Xeon VM).
NOMINAL_S = {"lapack": 0.005, "python": 0.007, "gemm": 0.003, "cache": 0.002, "memory": 0.0135}


class Calibration:
    """Timings of the calibration kernel taken during one run.

    Each sample keeps every part's time, so the record shows which kind of
    work the machine slowed down.
    """

    def __init__(self):
        rng = np.random.default_rng(20100811)
        self._small = rng.normal(size=(16, 8))
        self._big = rng.normal(size=(256, 256))
        self._vec = rng.normal(size=100_000)
        self._cands = rng.normal(size=(4096, 16))
        self._obs = rng.normal(size=(16, 256))
        self.samples = []

    def _lapack(self):
        for _ in range(200):
            np.linalg.qr(self._small)

    def _python(self):
        acc = 0
        for i in range(1, 2000):
            acc += (Fraction(i, i + 1) * Fraction(i + 2, i + 3)).denominator

    def _gemm(self):
        for _ in range(6):
            self._big @ self._big

    def _cache(self):
        for _ in range(10):
            np.round(self._vec * 0.5 - 0.25)

    def _memory(self):
        d = (self._cands**2).sum(axis=1)[:, None] - 2.0 * (self._cands @ self._obs)
        np.argmin(d, axis=0)

    def sample(self) -> float:
        """Time every part once; returns the slowdown it shows."""
        times = {}
        for name in NOMINAL_S:
            t0 = perf_counter()
            getattr(self, "_" + name)()
            times[name] = perf_counter() - t0
        self.samples.append(times)
        return self.slowdown(times)

    def mark(self) -> int:
        """Take a sample; returns its index in ``samples``."""
        self.sample()
        return len(self.samples) - 1

    def slowdown_between(self, first: int, second: int) -> float:
        """Mean slowdown of two samples, for the work timed between them."""
        return (self.slowdown(self.samples[first]) + self.slowdown(self.samples[second])) / 2

    def slowdown(self, times) -> float:
        """Kernel time over its nominal time; above 1 on a slow machine."""
        return sum(times.values()) / sum(NOMINAL_S.values())

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdown(t) for t in self.samples)
