"""Host-speed-normalised timing.

The benchmark runs on a few cores of a shared host whose speed
flickers: the same work runs up to 2x slower for stretches of half a
second to minutes, and the host as a whole can be 40 % slower in one
quarter-hour than in the next.  Raw wall times of identical work spread
further than any useful regression bound.

A :class:`HostClock` samples the host's speed while operations run: a
``SIGALRM`` timer interrupts the benchmark every ``PERIOD_S`` seconds
and times a fixed *probe* (the benchmark's own code, which
no change to ``src/`` can speed up or slow down).  An operation's wall
time, minus the time spent in those interruptions, is then scaled by
``PROBE_REF_S`` over the mean probe time sampled during it.  The result
reads as the seconds the operation takes on a host whose probe takes
``PROBE_REF_S`` -- the quiet speed of the machine the baseline was taken
on.  README's *Host speed* gives the spreads this removes.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, List

import numpy as np

#: Probe seconds on the baseline machine when quiet.
PROBE_REF_S = 0.001
PERIOD_S = 0.05
#: An operation shorter than a few periods is scaled by the samples
#: taken during it padded with the latest ones before it, to this many.
MIN_SAMPLES = 3


_RNG = np.random.default_rng(20150608)
_VALUES = _RNG.random(20_000)
_INDEX = _RNG.integers(0, _VALUES.size, _VALUES.size)


def _probe() -> float:
    """Interpreter work and a small numpy gather and sort.

    Both touch little memory, so the probe sees the host's speed rather
    than the state of the program's heap: probes that allocate many
    objects (building or parsing JSON) tracked slowdowns well in
    isolation but inside a run mostly measured the program's own heap,
    and spread some study metrics further than raw wall time did.
    """
    total = 0
    table = {}
    for i in range(3_000):
        total += i * i
        table[i & 1023] = total
    return float(np.sort(_VALUES[_INDEX])[-1]) + len(table)


@dataclass
class Measurement:
    wall_s: float = 0.0
    ref_s: float = 0.0


class HostClock:
    """Samples host speed on a timer while started; measures operations."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        self.samples.append(perf_counter() - start)
        self.spent_s += perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample(None, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextmanager
    def paused(self) -> Iterator[None]:
        """No sampling inside (traced cycles time raw spans)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    @contextmanager
    def measure(self) -> Iterator[Measurement]:
        """Time the block: wall seconds without sampling interruptions,
        and those seconds at the reference host speed."""
        result = Measurement()
        first, spent = len(self.samples), self.spent_s
        start = perf_counter()
        yield result
        result.wall_s = perf_counter() - start - (self.spent_s - spent)
        during = self.samples[max(0, min(first, len(self.samples) - MIN_SAMPLES)):]
        result.ref_s = result.wall_s * PROBE_REF_S / statistics.fmean(during)
