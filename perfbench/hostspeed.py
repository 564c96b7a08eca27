"""Host-speed probe and the clock that scales wall time by it.

The machines this benchmark runs on change speed by up to 2x within
seconds: a fixed loop of Fraction arithmetic runs at one of two levels,
the level flips every few seconds, and it swings less within 100 ms.
Medians over a run do not hide this, because a whole run can sit at
either level.  The probe runs the same kind of arithmetic as the
package, so the program slows by about the factor the probe does.

`HostClock` therefore samples the probe every PERIOD_S seconds from a
timer signal while the worker runs, and converts a wall interval into
reference seconds: time integrated over PROBE_REF_NS / probe level.  The
probe's own time is taken out of the interval it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_STEPS = 100
# Probe duration that defines one reference second; about the fast level
# of a 2-core Intel Xeon host running CPython 3.11.
PROBE_REF_NS = 250_000
# Requests of 50 ms vary by 10-15% between runs when sampled every 100 ms
# and by 3-5% when sampled every 10 ms.  The probe costs about 2.5%.
PERIOD_S = 0.01


def probe_ns(steps: int = PROBE_STEPS) -> int:
    """Time a fixed loop of Fraction arithmetic."""
    x, s = Fraction(1, 3), Fraction(0)
    start = time.perf_counter_ns()
    for j in range(steps):
        s += x * j if j & 1 else -x
    return time.perf_counter_ns() - start


def probe_s(repeats: int = 200) -> float:
    """Median probe time in seconds; a diagnostic of the host's speed."""
    probe_ns()
    return statistics.median(probe_ns() for _ in range(repeats)) * 1e-9


class HostClock:
    """Periodic probe samples, and wall intervals converted to reference time."""

    def __init__(self):
        self.times: list[int] = []
        self.levels: list[int] = []
        self.probe_total_ns = 0
        self._busy = False
        # Replaceable, so that the tracer can put each probe in a span.
        self.probe = self.sample
        probe_ns()

    def sample(self) -> None:
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        start = time.perf_counter_ns()
        level = probe_ns()
        end = time.perf_counter_ns()
        self.times.append((start + end) // 2)
        self.levels.append(level)
        self.probe_total_ns += end - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def smooth(self) -> None:
        """Median-of-three filter: keeps level steps, drops lone outliers."""
        lv = self.levels
        self.levels = [
            statistics.median(lv[max(i - 1, 0): i + 2]) for i in range(len(lv))
        ]

    def level(self, t: int) -> float:
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.levels[0]
        if i == len(self.times):
            return self.levels[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        l0, l1 = self.levels[i - 1], self.levels[i]
        return l0 + (l1 - l0) * (t - t0) / (t1 - t0)

    def reference_s(self, start: int, end: int, net_ns: int) -> float:
        """Reference seconds for [start, end], of which net_ns was not probing."""
        if end <= start:
            return 0.0
        lo = bisect.bisect_right(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        cuts = [start] + self.times[lo:hi] + [end]
        prev_t, prev_l = start, self.level(start)
        scaled = 0.0
        for t in cuts[1:]:
            lv = self.level(t)
            scaled += (t - prev_t) * 2 / (prev_l + lv)
            prev_t, prev_l = t, lv
        return scaled * PROBE_REF_NS * net_ns / (end - start) * 1e-9
