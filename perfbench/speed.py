"""Host-speed correction for the benchmark's timings.

The 2-vCPU host the benchmark was defined on changes speed by up to 1.6x for
seconds to minutes at a time; the slow spells hit one CPU at a time and show
in process CPU time as much as in wall time, so neither a longer run nor a
probe on another CPU averages them out.  What does track them is a small
fixed kernel timed on the benchmark's own thread while the ops run.

``SpeedSampler`` times that kernel from a SIGALRM handler every
SAMPLE_EVERY_S of wall time.  An op's time in reference seconds is its
measured time, minus the time the handler ran inside it, multiplied by
REFERENCE_S x mean(1 / kernel time) over the samples taken during the op --
or during the whole pass when the op held fewer than MIN_SAMPLES.  A change
that makes modata faster leaves the kernel's time alone, so it shows in full.
"""
from __future__ import annotations

import cmath
import json
import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

SAMPLE_EVERY_S = 0.05
MIN_SAMPLES = 3
PROBE_REPEATS = 21
# median kernel time on the defining host (x86_64 Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4); times in reference seconds read as seconds at that speed
REFERENCE_S = 0.0014


def kernel_s() -> float:
    """Time of a fixed kernel shaped like modata's own work: Fraction and
    cmath phases, 4x4 complex numpy products and a small json round trip."""
    import numpy as np  # here, so that importing this module leaves set-up timing alone

    t0 = perf_counter()
    m = np.eye(4, dtype=complex) * 0.5
    acc = 0j
    for q in range(1, 60):
        w = np.ones(4, dtype=complex)
        w[1] = cmath.exp(2j * math.pi * float(Fraction(q, 61) % 1))
        p = m * w[None, :]
        p3 = p @ p @ p
        acc += p3[0, 0] / (np.max(np.abs(p3)) + 1.0)
    json.loads(json.dumps({str(i): [i * 0.5, -i] for i in range(150)}))
    return perf_counter() - t0


def probe_s() -> float:
    """Median kernel time over PROBE_REPEATS back-to-back runs."""
    return statistics.median(kernel_s() for _ in range(PROBE_REPEATS))


class SpeedSampler:
    """Kernel samples (start, end, kernel seconds) taken while it is entered."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        k = kernel_s()
        self.samples.append((start, perf_counter(), k))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_times(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Reference-second times of ops that ran in the given (start, end)
        intervals of one pass; uses, then drops, the samples taken so far."""
        samples, self.samples = self.samples, []
        pass_rate = (statistics.mean(1 / k for _, _, k in samples) if samples
                     else 1 / probe_s())
        out = []
        for t0, t1 in intervals:
            inside = [(s, e, k) for s, e, k in samples if t0 <= s <= t1]
            handler = sum(e - s for s, e, _ in inside)
            rate = (statistics.mean(1 / k for _, _, k in inside)
                    if len(inside) >= MIN_SAMPLES else pass_rate)
            out.append((t1 - t0 - handler) * REFERENCE_S * rate)
        return out
