"""The typed event core of the cluster service.

Every state change in a cluster run is one :class:`Event` on one
deterministic heap:

``COMPLETE``
    A chip finishes its job (or its staging transfer + job).
``RETRY``
    A closed-loop source re-submits a previously backpressured job
    after its backoff expires.
``ARRIVAL``
    A job arrives from the source's trace.
``PREEMPT``
    The policy checkpoints a running job and returns its chip.
``DISPATCH``
    The scheduling round places one (job, chip) pair.

The heap order *is* the service's determinism contract.  An
:class:`Event` is a named tuple ``(time_s, rank, tie, seq, kind,
payload)`` and is its own heap key, so events sort by
``(time_s, rank, tie, seq)``:

* ``rank`` encodes the legacy tie rules -- at one timestamp completions
  are applied before retries, retries before fresh arrivals, and the
  scheduling round's preemptions/dispatches come last (the round only
  runs once every simultaneous state change has been applied, exactly
  like the pre-engine loop's completions-before-arrivals ordering).
* ``tie`` is the domain tie-break: ``chip_id`` for completions (the
  legacy busy-heap order), ``job_id`` for arrivals and retries.
* ``seq`` is a monotonic issue counter, unique per event, so two
  events never compare further than it: the order is total without
  ever comparing kinds or payloads.

That order is total only over comparable times, so
:meth:`EventEngine.schedule` refuses a NaN or infinite time: a NaN on
top of the heap would never equal the clock, and the run would spin.

:class:`EventEngine` owns the heap and the stepping rule; the cluster
engine (:mod:`repro.cluster.engine`) supplies the two callbacks --
``apply`` for a single event and ``round_fn`` for the scheduling round
run after each drained timestamp.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import isfinite
from typing import Any, Callable, Dict, List, NamedTuple

#: Event kinds, in application order at one timestamp.
COMPLETE = "complete"
RETRY = "retry"
ARRIVAL = "arrival"
PREEMPT = "preempt"
DISPATCH = "dispatch"

#: Application order at equal timestamps (the legacy tie rules).
EVENT_RANK: Dict[str, int] = {
    COMPLETE: 0,
    RETRY: 1,
    ARRIVAL: 2,
    PREEMPT: 3,
    DISPATCH: 4,
}


class Event(NamedTuple):
    """One typed, totally ordered cluster event, compared as the tuple it
    is: ``seq`` is unique, so the order is decided by ``(time_s, rank,
    tie, seq)`` alone."""

    time_s: float
    #: ``EVENT_RANK[kind]``: the application order at one timestamp.
    rank: int
    #: Domain tie-break at equal (time, rank): chip_id for completions
    #: and preemptions, job_id for arrivals/retries, 0 for dispatches.
    tie: int
    #: Monotonic issue counter (total order without payload compares).
    seq: int
    kind: str
    payload: Any = None


class EventEngine:
    """One deterministic heap plus the drain-then-round stepping rule.

    :meth:`run` pops every event sharing the earliest timestamp (in
    rank/tie order), applies each through *apply*, then invokes
    *round_fn* -- the scheduling round -- which may push ``PREEMPT`` /
    ``DISPATCH`` events back at the same timestamp.  Those are drained
    and the round re-runs until it stops producing events; only then
    does time advance.  This reproduces the legacy loop exactly: at any
    instant, completions are visible to simultaneous arrivals, and the
    dispatch round sees every simultaneous state change.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        #: Events applied, by kind (cheap audit counters).
        self.counts: Dict[str, int] = {kind: 0 for kind in EVENT_RANK}

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self, time_s: float, kind: str, tie: int = 0, payload: Any = None
    ) -> Event:
        """Push one event; returns it (the seq identifies it uniquely).

        A NaN or infinite *time_s* raises ``ValueError``: the heap's
        order, and so the run, needs every time comparable and finite.
        """
        rank = EVENT_RANK.get(kind)
        if rank is None:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {sorted(EVENT_RANK)}"
            )
        time_s = float(time_s)
        if not isfinite(time_s):
            raise ValueError(
                f"{kind} event time must be finite, got {time_s!r}"
            )
        self._seq += 1
        event = Event(time_s, rank, int(tie), self._seq, kind, payload)
        heappush(self._heap, event)
        return event

    def run(
        self,
        apply: Callable[[Event], None],
        round_fn: Callable[[float], bool],
    ) -> None:
        """Step the heap to exhaustion.

        *apply* handles one event (and may schedule future events);
        *round_fn(now)* runs one scheduling round and returns ``True``
        when it scheduled same-instant work that must be drained before
        the round is consulted again.
        """
        heap = self._heap
        counts = self.counts
        while heap:
            now = heap[0].time_s
            # Every simultaneous event is applied, then scheduling rounds
            # run until they stop producing same-instant events.
            while True:
                while heap and heap[0].time_s == now:
                    event = heappop(heap)
                    counts[event.kind] += 1
                    apply(event)
                if not round_fn(now):
                    break
