"""Machine speed, measured by a fixed piece of work that never calls the library.

On a shared machine the same call can take twice as long from one minute to
the next, and that drift swamps the differences the benchmark is meant to
show.  So a run times `reference_work` before every job and after the last,
and divides each time it reports for work done in its own process by the
slowdown around that work: the mean of the reference times just before and
just after it, over NOMINAL_S.  Those times are seconds at the machine's
quiet speed.  A change to the library cannot move the reference, so it moves
the reported times exactly as it moves the wall-clock ones.  The wall-clock
figures are kept in the run's record as well.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

# reference_work on a quiet two-vCPU Intel Xeon VM, Python 3.11, numpy 2.4.
NOMINAL_S = 0.017


def reference_work() -> int:
    """A fixed mix of what the library spends its time on: sorting and
    dict updates, big-integer bit operations, and small numpy fancy indexing.
    """
    rng = random.Random(1)
    xs = [rng.random() for _ in range(20000)]
    xs.sort()
    buckets: dict[int, float] = {}
    for i, x in enumerate(xs):
        buckets[i % 997] = buckets.get(i % 997, 0.0) + x
    mask = 0
    for i in range(20000):
        mask |= 1 << (i % 500)
        mask &= ~(1 << ((i * 7) % 500))
    a = np.arange(300 * 300).reshape(300, 300) % 7
    idx = np.arange(0, 300, 2)
    total = 0
    for _ in range(20):
        b = a[np.ix_(idx, idx)].copy()
        b -= 1
        total += int(b[0, 0])
    return mask.bit_count() + len(buckets) + total


class Speed:
    """The machine's current slowdown against NOMINAL_S."""

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> int:
        """Time reference_work once; return the index of the new sample."""
        t0 = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def bracket(self, i: int, j: int) -> float:
        """Mean of reference times i to j over NOMINAL_S: the slowdown
        during work done between measurements i and j.
        """
        return statistics.fmean(self.samples[i : j + 1]) / NOMINAL_S

    @property
    def run_factor(self) -> float:
        """The same over every measurement of the run so far."""
        return statistics.median(self.samples) / NOMINAL_S
