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

The heap order *is* the service's determinism contract.  Events sort by
``(time_s, rank, tie, seq)``:

* ``rank`` encodes the legacy tie rules -- at one timestamp completions
  are applied before retries, retries before fresh arrivals, and the
  scheduling round's preemptions/dispatches come last (the round only
  runs once every simultaneous state change has been applied, exactly
  like the pre-engine loop's completions-before-arrivals ordering).
* ``tie`` is the domain tie-break: ``chip_id`` for completions (the
  legacy busy-heap order), ``job_id`` for arrivals and retries.
* ``seq`` is a monotonic issue counter, so the order is total without
  ever comparing payloads.

:class:`EventEngine` owns the heap and the stepping rule; the cluster
engine (:mod:`repro.cluster.engine`) supplies the two callbacks --
``apply`` for a single event and ``round_fn`` for the scheduling round
run after each drained timestamp.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

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


@dataclass(frozen=True)
class Event:
    """One typed, totally ordered cluster event."""

    time_s: float
    kind: str
    #: Domain tie-break at equal (time, kind): chip_id for completions,
    #: job_id for arrivals/retries, issue order for round events.
    tie: int
    #: Monotonic issue counter (total order without payload compares).
    seq: int
    payload: Any = field(default=None, compare=False)

    @property
    def sort_key(self):
        return (self.time_s, EVENT_RANK[self.kind], self.tie, self.seq)


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
        self._heap: List[tuple] = []
        self._seq = 0
        #: Events applied, by kind (cheap audit counters).
        self.counts: Dict[str, int] = {kind: 0 for kind in EVENT_RANK}

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self, time_s: float, kind: str, tie: int = 0, payload: Any = None
    ) -> Event:
        """Push one event; returns it (the seq identifies it uniquely)."""
        if kind not in EVENT_RANK:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {sorted(EVENT_RANK)}"
            )
        self._seq += 1
        event = Event(
            time_s=float(time_s), kind=kind, tie=int(tie),
            seq=self._seq, payload=payload,
        )
        heapq.heappush(self._heap, (event.sort_key, event))
        return event

    def _pop(self) -> Event:
        return heapq.heappop(self._heap)[1]

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
        while self._heap:
            now = self._heap[0][1].time_s
            while self._heap and self._heap[0][1].time_s == now:
                event = self._pop()
                self.counts[event.kind] += 1
                apply(event)
            # Every simultaneous event is applied; run scheduling rounds
            # until they stop producing same-instant events.
            while round_fn(now):
                while self._heap and self._heap[0][1].time_s == now:
                    event = self._pop()
                    self.counts[event.kind] += 1
                    apply(event)
