"""A gauge of the host's speed, sampled while the timed work runs.

This machine's speed drifts with other work on its host: the same code runs
up to 1.6 times slower for periods from seconds to minutes, with processor
time tracking wall time, so no statistic of the raw times of one run can
tell a slower program from a slower host.  The Sampler runs a fixed kernel
that does not touch actionlab (a pure-Python loop and small-array numpy
calls, the kinds of work the workloads spend their time in) from a timer
signal every INTERVAL_S, in the same thread as the timed work.  The kernel
runs twice per sample and only the second, cache-warm run is timed, so the
program's own memory traffic does not slow the gauge.

`Sampler.scaled(start, end)` is the time from start to end without the
sampler's own time, multiplied by REFERENCE_S over the mean gauge time of
the samples taken in between: the seconds the work would have taken on a
host that runs the kernel in REFERENCE_S.  A program change moves it as it
moves the raw time; a change of host speed during the work moves it much
less (see README.md).
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import monotonic

import numpy as np

INTERVAL_S = 0.02
#: gauge time at reference speed; near the median on the 2-vCPU machine the
#: README's reference figures come from, so scaled times read close to
#: that machine's wall times
REFERENCE_S = 100e-6
#: samples to average at least; work shorter than this many intervals uses
#: the samples nearest to it
MIN_SAMPLES = 10

_M = 0.5 * np.eye(3)
_V = np.array([1.0, 2.0, 3.0])


def _kernel() -> float:
    total = 0
    for i in range(400):
        total += i * i % 7
    v = _V
    for _ in range(25):
        v = np.maximum(_M @ v, -v)
    return total + float(v[0])


class Sampler:
    def __init__(self):
        #: per sample: when the handler was entered and left, and the
        #: timed kernel's seconds
        self.entered: list[float] = []
        self.left: list[float] = []
        self.gauge: list[float] = []

    def _sample(self, signum, frame) -> None:
        entered = monotonic()
        _kernel()
        start = monotonic()
        _kernel()
        end = monotonic()
        self.entered.append(entered)
        self.gauge.append(end - start)
        self.left.append(monotonic())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end (monotonic clock) spent outside the
        sampler, at reference host speed."""
        i = bisect.bisect_left(self.entered, start)
        j = bisect.bisect_right(self.left, end)
        own = sum(b - a for a, b in zip(self.entered[i:j], self.left[i:j]))
        if j - i < MIN_SAMPLES:
            mid = (i + j) // 2
            i = max(0, min(mid - MIN_SAMPLES // 2, len(self.gauge) - MIN_SAMPLES))
            j = i + MIN_SAMPLES
        if not self.gauge[i:j]:
            raise RuntimeError("no gauge samples")
        return (end - start - own) * REFERENCE_S / statistics.fmean(self.gauge[i:j])
