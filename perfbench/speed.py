"""Machine-speed probes, so that times can be reported at a fixed speed.

On a shared host the speed of this process drifts: a fixed ``Fraction``
loop ranged over 2x in CPU time within one minute, in phases of a few
seconds, and whole 30-second runs came out 10-20 % apart.  During setup
and the loop, a profiling timer interrupts every ``PERIOD_S`` CPU seconds and
times a small fixed reference kernel (exact Fraction elimination and
dict updates, the engine's staple operations).  An instance's time is
then scaled by ``NOMINAL_S / (mean probe time around the instance)``:
seconds at the speed at which the kernel takes ``NOMINAL_S``.  The probe
time spent inside an instance is subtracted from it first.

The kernel is benchmark code, so a change to the engine cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from typing import List, Tuple

# Times are CPU time of the one thread: the engine is single-threaded,
# CPU-bound and does no I/O.  Not the process clock: with a profiling timer
# armed, Linux advances that only in scheduler ticks (4 ms here).
CLOCK = time.thread_time
PERIOD_S = 0.1
# probes taken this many CPU seconds either side of an instance count
WINDOW_S = 0.5
# the median probe over the runs made while writing the benchmark
# (2-vCPU Xeon guest, Python 3.11.7), so scaled times stay near seconds
NOMINAL_S = 0.0045

_MATRIX = [[Fraction((7 * r + 3 * c) % 19 - 9, (r * c) % 8 + 1) for c in range(9)]
           for r in range(7)]


def kernel() -> None:
    """Gauss-Jordan on a fixed 7 x 9 rational matrix, then dict updates."""
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(9):
        p = next((i for i in range(r, 7) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(7):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    acc = {}
    for i in range(250):
        key = ((i % 13, i % 5), i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)


class Probes:
    """Samples ``kernel`` on a CPU-time timer while installed."""

    def __init__(self):
        self.at: List[float] = []  # CPU clock at each probe, ascending
        self.took: List[float] = []
        self.spent = 0.0  # CPU seconds spent probing so far
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        start = CLOCK()
        kernel()
        took = CLOCK() - start
        self.at.append(start)
        self.took.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self):
        self._probe(None, None)  # so that ``scale`` always has a probe
        self._old = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    def scale(self, span: Tuple[float, float]) -> float:
        """NOMINAL_S over the mean probe time near a CPU-clock interval."""
        lo = bisect.bisect_left(self.at, span[0] - WINDOW_S)
        hi = bisect.bisect_right(self.at, span[1] + WINDOW_S)
        near = self.took[lo:hi] or self.took
        return NOMINAL_S * len(near) / sum(near)
