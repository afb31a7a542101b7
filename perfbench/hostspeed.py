"""Host-speed probe: converts measured seconds into reference seconds.

A small shared host changes speed by up to half within seconds, for stretches
of 20 s and more, while the load stays the same (wall time equals CPU time).
No run is long enough to average that out.  So a pass samples the host's
speed while it runs: a fixed probe (exact Fraction arithmetic with growing
integers, like the package's own hot loops, and sharing no code with it)
runs once before the pass, once after it, and every ``PERIOD_S`` in between
from a SIGALRM handler.  Each stretch of time between two probes is scaled
by ``REF_PROBE_S`` over the median duration of the ``WINDOW`` probes on each
side of it (about a second), and the probe time itself is left out.  The
median keeps one probe that an interrupt slowed from skewing a stretch.

The result is in reference seconds: the seconds the work would take on a
host that runs the probe in ``REF_PROBE_S``.  A change to the package does
not change the probe, so a faster program still reads as faster.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Probe time on the host that defined the benchmark (2-core x86-64 VM,
# Python 3.11, in its faster phases).
REF_PROBE_S = 0.0035
PERIOD_S = 0.1
WINDOW = 6


def probe() -> None:
    """Fixed work: a partial sum of 1/i^2 as an exact Fraction."""
    total = Fraction(0)
    for i in range(1, 800):
        total += Fraction(1, i * i)


class SpeedProbe:
    """Probes the host's speed before, during and after a timed region."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []
        self._previous = None

    def _run(self) -> None:
        start = perf_counter()
        probe()
        self.spans.append((start, perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        self._run()
        # Re-armed only after the probe ends, so probes never overlap.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        probe()  # warm-up, not a sample
        self._run()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._run()

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """(measured, reference) seconds of [start, end], probes left out."""
        durations = [e - s for s, e in self.spans]
        measured = reference = 0.0
        for i in range(len(self.spans) - 1):
            lo, hi = max(start, self.spans[i][1]), min(end, self.spans[i + 1][0])
            if hi > lo:
                nearby = durations[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
                measured += hi - lo
                reference += (hi - lo) * REF_PROBE_S / statistics.median(nearby)
        return measured, reference

    def median_probe_s(self) -> float:
        return statistics.median(e - s for s, e in self.spans)
