"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts: the same d_max solve took
from 49 to 84 ms within two minutes on a 2-core Xeon VM, in steps that last
tens of seconds, while a fixed piece of interpreter, NumPy and Faddeeva work
run between the solves drifted by the same factor (their ratio stayed within
+-3%).  So the timed loop interleaves such a calibration unit with the
operations, about one tenth of the operation time, and every latency is
rescaled by the speed measured around it:

    calibrated = measured * REFERENCE_UNIT_S / (median unit time nearby)

A calibrated time reads as the time on a machine where one unit takes
REFERENCE_UNIT_S, which is what the unit took on that VM when it was not
slowed.  The unit calls nothing in conical_harvest, so no change to the
library moves it.
"""

import bisect
import heapq
import math
import statistics
import time

import numpy as np
from scipy.special import erfc, wofz

REFERENCE_UNIT_S = 0.9e-3
SHARE = 0.1      # calibration time per unit of operation time
WINDOW = 15      # units whose median gives the local speed

_NODES = np.linspace(-1.0, 1.0, 15)


def unit():
    """Fixed work: small-array Faddeeva calls, dot products, heap and scalar arithmetic."""
    acc = 0.0
    heap = []
    for i in range(60):
        a = 0.05 * i + 0.1
        w = wofz(-(0.5 * a + 0.5 * a * _NODES) + 0.3j)
        acc += float((np.stack([w.real, w.imag]) @ np.abs(_NODES)).max())
        acc += math.exp(-a * a) * erfc(a) + math.sqrt(a)
        heapq.heappush(heap, (-acc, i))
        for j in range(20):
            acc += (a * j) % 7.0 / (1.0 + j)
    while heap:
        heapq.heappop(heap)
    return acc


def time_units(count):
    """Median duration of ``count`` units run back to back."""
    durations = []
    for _ in range(count):
        start = time.perf_counter()
        unit()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


class Calibrator:
    """Interleaves calibration units with timed operations and rescales their latencies."""

    def __init__(self):
        self.times = []       # midpoints of the units, ascending
        self.durations = []
        self.op_time = 0.0
        self.unit_time = 0.0

    def keep_up(self, op_seconds):
        """Run units until they took SHARE of the operation time so far."""
        self.op_time += op_seconds
        while self.unit_time < SHARE * self.op_time or not self.durations:
            start = time.perf_counter()
            unit()
            end = time.perf_counter()
            self.times.append(0.5 * (start + end))
            self.durations.append(end - start)
            self.unit_time += end - start

    def factor_at(self, t):
        """REFERENCE_UNIT_S over the median duration of the WINDOW units nearest to time t."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_UNIT_S / statistics.median(self.durations[lo:lo + WINDOW])
