"""The process-wide tracer: spans, counters, histograms.

Design constraints, in priority order:

1. **Zero overhead when off.**  Every instrumentation site guards with
   ``if tracer.enabled:`` before building event arguments, and the
   default :class:`NullTracer` makes that a single attribute load plus a
   branch.  Hot loops capture the tracer once (at simulator/network
   construction), not per event.
2. **Determinism.**  Simulated-time events carry timestamps from the
   discrete-event clock and are recorded in execution order, so two runs
   of the same seed produce identical event lists.  Wall-clock spans are
   kept on a separate time domain (``wall=True``) that exporters drop by
   default.
3. **Plain data.**  Events are small dataclasses; aggregates (counters,
   histograms) are dicts of builtins.  Exporters and summaries live in
   sibling modules and never require numpy.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

TrackId = Union[int, str]


@dataclass
class Span:
    """One completed interval on a (pid, tid) track."""

    name: str
    cat: str
    pid: TrackId
    tid: TrackId
    start_s: float
    duration_s: float
    args: Dict[str, object] = field(default_factory=dict)
    #: True for wall-clock spans (non-deterministic timestamps).
    wall: bool = False

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class Sample:
    """One counter sample (a point on a Chrome counter track)."""

    name: str
    pid: TrackId
    tid: TrackId
    ts_s: float
    value: float
    series: str = "value"


class Histogram:
    """Streaming histogram: count/sum/min/max plus log2 buckets.

    Buckets are powers of two of the recorded value (``floor(log2 v)``),
    which is deterministic and needs no a-priori range.  Zero and
    negative values land in a dedicated underflow bucket.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = math.floor(math.log2(value)) if value > 0.0 else -1075
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": int(self.count),
            "total": float(self.total),
            "mean": float(self.mean),
            "min": float(self.min) if self.count else 0.0,
            "max": float(self.max) if self.count else 0.0,
            "buckets": {str(k): int(v) for k, v in sorted(self.buckets.items())},
        }


class Tracer:
    """Interface shared by :class:`NullTracer` and :class:`RecordingTracer`.

    All methods are no-ops here; instrumentation sites may call them
    unconditionally for cold paths, or guard with :attr:`enabled` before
    assembling per-event arguments on hot paths.
    """

    enabled = False

    def span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        cat: str = "",
        pid: TrackId = 0,
        tid: TrackId = 0,
        wall: bool = False,
        **args: object,
    ) -> None:
        """Record one completed interval."""

    def sample(
        self,
        name: str,
        ts_s: float,
        value: float,
        pid: TrackId = 0,
        tid: TrackId = 0,
        series: str = "value",
    ) -> None:
        """Record one counter sample (a Chrome ``C`` event)."""

    def counter_add(self, name: str, value: float = 1.0, key: TrackId = "") -> None:
        """Accumulate into the ``(name, key)`` running total."""

    def histogram_record(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""

    @contextmanager
    def wall_span(
        self,
        name: str,
        cat: str = "",
        pid: TrackId = "wall",
        tid: TrackId = 0,
        **args: object,
    ) -> Iterator[Dict[str, object]]:
        """Measure the enclosed block with ``time.perf_counter``.

        Yields the span's argument dict: what the block adds to it (a
        count known only at the end) is recorded with the span."""
        yield args


class NullTracer(Tracer):
    """The default: records nothing, costs one branch per guard."""


#: Shared no-op instance; ``get_tracer`` returns it unless one is set.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """In-memory tracer collecting spans, samples, counters, histograms.

    Wall-clock spans are timestamped relative to the tracer's creation
    so exported wall tracks start near zero.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.samples: List[Sample] = []
        self.counters: Dict[Tuple[str, TrackId], float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._wall_origin = time.perf_counter()

    # ------------------------------------------------------------------ #

    def span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        cat: str = "",
        pid: TrackId = 0,
        tid: TrackId = 0,
        wall: bool = False,
        **args: object,
    ) -> None:
        self.spans.append(
            Span(name, cat, pid, tid, float(start_s), float(duration_s), args, wall)
        )

    def sample(
        self,
        name: str,
        ts_s: float,
        value: float,
        pid: TrackId = 0,
        tid: TrackId = 0,
        series: str = "value",
    ) -> None:
        self.samples.append(
            Sample(name, pid, tid, float(ts_s), float(value), series)
        )

    def counter_add(self, name: str, value: float = 1.0, key: TrackId = "") -> None:
        slot = (name, key)
        self.counters[slot] = self.counters.get(slot, 0.0) + value

    def histogram_record(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.record(float(value))

    @contextmanager
    def wall_span(
        self,
        name: str,
        cat: str = "",
        pid: TrackId = "wall",
        tid: TrackId = 0,
        **args: object,
    ) -> Iterator[Dict[str, object]]:
        start = time.perf_counter()
        try:
            yield args
        finally:
            end = time.perf_counter()
            self.span(
                name,
                start - self._wall_origin,
                end - start,
                cat=cat,
                pid=pid,
                tid=tid,
                wall=True,
                **args,
            )

    # ------------------------------------------------------------------ #
    # queries (used by summaries, exporters and tests)
    # ------------------------------------------------------------------ #

    def spans_by(
        self,
        cat: Optional[str] = None,
        pid: Optional[TrackId] = None,
        wall: Optional[bool] = None,
    ) -> List[Span]:
        """Spans filtered by category / pid / time domain."""
        out = []
        for span in self.spans:
            if cat is not None and span.cat != cat:
                continue
            if pid is not None and span.pid != pid:
                continue
            if wall is not None and span.wall != wall:
                continue
            out.append(span)
        return out

    def counter_total(self, name: str, key: Optional[TrackId] = None) -> float:
        """Total of one counter: one key, or summed over all keys."""
        if key is not None:
            return self.counters.get((name, key), 0.0)
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def clear(self) -> None:
        self.spans.clear()
        self.samples.clear()
        self.counters.clear()
        self.histograms.clear()


# ---------------------------------------------------------------------- #
# the process-wide tracer
# ---------------------------------------------------------------------- #

_TRACER: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The currently installed process-wide tracer."""
    return _TRACER


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install *tracer* globally (``None`` restores the null tracer).

    Components capture the tracer when they are constructed (simulators,
    network models), so install the tracer *before* building the objects
    whose activity should be recorded.  Returns the previous tracer.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
