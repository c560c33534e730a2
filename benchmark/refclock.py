"""Reference unit: machine-speed-independent time.

The benchmark times a fixed, allocation-free, pure-Python loop (it only
ever touches ints below 256, which CPython caches, and iterates a tuple
built once).  The loop is not part of cobst.  It runs in short slices
between the segments of measured work, while that work is paused, so the
slices see the same machine speed as the segments around them.

A segment that took T wall seconds, between two slices that ran the
loop at R1 and R2 iterations per second, is reported as

    T * mean(R1, R2) / R_NOMINAL   reference seconds (ref_s).

R_NOMINAL is a constant, so figures stay close to wall seconds on the
machine it was fixed on, but a run on a slower (or throttled, or shared)
machine reports about the same number of ref_s for the same work.
"""

from __future__ import annotations

import time

__all__ = ["R_NOMINAL", "RefClock"]

# loop iterations per second, fixed once: a typical slice rate of
# CPython 3.11 on the 2-vCPU Intel Xeon virtual machine the benchmark was
# calibrated on, where measured rates ranged from 9.5e6 to 16e6
R_NOMINAL = 13.0e6

_ITER = 2000
_CHUNKS = 20        # chunks per slice: 40 000 iterations, about 3 ms
_REPS = (None,) * _ITER


def _chunk(reps=_REPS):
    x = 1
    for _ in reps:
        x = (x * 5 + 3) & 255
        x = (x ^ 90) & 255
    return x


class RefClock:
    """Interleaves reference slices with measured segments.

    Call ``start()`` before the first segment and ``factor()`` right after
    each segment ends; ``factor()`` runs the next slice and returns the
    multiplier that turns that segment's wall time into ref time.
    """

    def __init__(self):
        self.rates: list[float] = []    # iterations per second, one per slice

    def _slice(self) -> float:
        clock = time.perf_counter_ns
        t0 = clock()
        for _ in range(_CHUNKS):
            _chunk()
        rate = _CHUNKS * _ITER / ((clock() - t0) * 1e-9)
        self.rates.append(rate)
        return rate

    def start(self) -> None:
        self._slice()

    def factor(self) -> float:
        before = self.rates[-1]
        after = self._slice()
        return (before + after) / (2.0 * R_NOMINAL)
