"""Times scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host, whose speed per core
swings by up to 2x over seconds as other tenants come and go; process CPU
time swings with it.  So every time the benchmark reports is scaled by how
fast the core ran while it was taken: a reference loop, which is not part of
the program, is timed now and then, and a span's time is multiplied by the
mean over the span of ``REF_S / (reference time)``.  A reported second is
then a second of the core at the speed where the reference loop takes
``REF_S``, about the speed of an unloaded core of the 2-vCPU Xeon VM the
benchmark was written on.  A change to the program moves the scaled times
as it moves the raw ones; the reference loop does not depend on it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter, process_time

REF_S = 1.8e-4
INTERVAL_S = 0.2  # sampling period of the timer
WINDOW_S = 0.3  # samples this close to a span also count for it


def _reference_loop() -> int:
    s = 0
    for i in range(2500):
        s += (i * 7919) & 1023
    return s


def reference_time() -> tuple[float, float]:
    """(wall, cpu) of the reference loop: the fastest of three, so that a
    preemption during one of them does not count."""
    best = (float("inf"), float("inf"))
    for _ in range(3):
        w0, c0 = perf_counter(), process_time()
        _reference_loop()
        best = min(best, (perf_counter() - w0, process_time() - c0))
    return best


class HostSpeed:
    """Samples the reference loop from a SIGALRM timer every INTERVAL_S.

    The samples' own time is kept in ``paused`` so the caller can take it
    out of the spans it times.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, wall, cpu)
        self.paused = [0.0, 0.0]  # wall, cpu spent sampling

    def _sample(self, signum, frame) -> None:
        w0, c0 = perf_counter(), process_time()
        self.samples.append((w0, *reference_time()))
        self.paused[0] += perf_counter() - w0
        self.paused[1] += process_time() - c0

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(wall, cpu) factors for a span from ``start`` to ``end``
        (perf_counter times).

        The work done in a span is its time multiplied by the core's mean
        speed over it, so the factor is the mean of REF_S / sample over the
        samples taken during the span; a span too short to hold two of them
        also uses those within WINDOW_S of it.
        """
        near = self._between(start, end)
        if len(near) < 2:
            near = self._between(start - WINDOW_S, end + WINDOW_S) or self.samples[-1:]
        return (
            REF_S * statistics.fmean(1 / s[1] for s in near),
            REF_S * statistics.fmean(1 / s[2] for s in near),
        )

    def _between(self, start: float, end: float) -> list:
        lo = bisect.bisect_left(self.samples, (start,))
        return self.samples[lo : bisect.bisect_right(self.samples, (end,))]
