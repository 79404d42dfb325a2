"""Machine-speed probe used to express times at a fixed reference speed.

On a shared virtual machine the CPU speed can shift by tens of percent for
minutes at a time, which moves every timing of a 40 s run together.  A
fixed pure-Python kernel, close in kind to the program's own work (Fraction arithmetic on ~40-bit operands and integer
bit counting), is timed every ``INTERVAL_S`` between operations; each
operation's latency is scaled by ``REFERENCE_S / probe`` with ``probe`` the
mean of the probes just before and just after it.  A time reported by the
benchmark is therefore "seconds on a machine where the kernel takes 1 ms".
The kernel never touches ``rational_kcbs``, so a change to the program
cannot change the scale; it is timed in thread CPU time, so threads the
program might start cannot slow it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1e-3
INTERVAL_S = 0.2
REPEATS = 5


def kernel() -> int:
    acc = Fraction(0)
    a = Fraction(123456789123, 987654321987)
    for i in range(150):
        acc += a * Fraction(i + 1, i + 7)
    x = 0
    for m in range(3000):
        x += (m ^ ((m << 1) | (m >> 11))).bit_count()
    return acc.numerator + x


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []  # perf_counter when each probe ended
        self.values: list[float] = []  # median kernel time of that probe

    def sample(self) -> None:
        runs = []
        for _ in range(REPEATS):
            t0 = time.thread_time()
            kernel()
            runs.append(time.thread_time() - t0)
        self.values.append(statistics.median(runs))
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        """Probe if the last probe is older than ``INTERVAL_S``."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor taking a wall-clock interval [start, end] to reference
        seconds: REFERENCE_S over the mean of the probes around it."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return REFERENCE_S / ((self.values[before] + self.values[after]) / 2)
