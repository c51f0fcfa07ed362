"""Reference engine: the event loop and the scheduling round as they were.

``ClusterEngine`` feeds arrivals into its heap one at a time, keeps the
preemption hook's chip-ordered view tuple until the busy set changes or
the clock passes a same-instant dispatch, builds each execution's
``preemptable=False`` twin at dispatch, and skips the hook for a policy
whose base hook never preempts.  Its heap holds ``Event`` named tuples
that are their own key, and the deadline policies find their extremes
in one pass.  :class:`OracleEngine` is the engine without any of that,
verbatim:

* its heap is :class:`OracleEventEngine`, which pushes a frozen
  :class:`OracleEvent` dataclass under a ``(sort_key, event)`` pair;
* every arrival is queued up front;
* every round that finds jobs waiting with no chip free re-sorts the
  busy executions and builds their views again, each twin with
  ``dataclasses.replace``;
* a picked job is found with ``any`` and removed in a second scan;
* ``edf`` and ``edf_preempt`` run as :class:`OracleDeadlineScheduler`
  and :class:`OracleEdfPreemptScheduler`, whose ``pick_job`` /
  ``pick_chip`` / ``select_preemption`` are the ``min`` / ``max``
  bodies over lambdas and lists.

``tests/cluster/test_record_oracle.py`` requires the same payload text
from both engines, and ``tests/cluster/test_policies.py`` the same
preemption victim from both ``select_preemption`` bodies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.engine import ClusterEngine
from repro.cluster.events import ARRIVAL, DISPATCH, EVENT_RANK, PREEMPT
from repro.cluster.jobs import JobRecord
from repro.cluster.policies import (
    DeadlineScheduler,
    EdfPreemptScheduler,
    RunningJob,
    _edf_key,
    _fifo_key,
)


@dataclass(frozen=True)
class OracleEvent:
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


class OracleEventEngine:
    """One deterministic heap plus the drain-then-round stepping rule."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        #: Events applied, by kind (cheap audit counters).
        self.counts: Dict[str, int] = {kind: 0 for kind in EVENT_RANK}

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self, time_s: float, kind: str, tie: int = 0, payload: Any = None
    ) -> OracleEvent:
        """Push one event; returns it (the seq identifies it uniquely)."""
        if kind not in EVENT_RANK:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {sorted(EVENT_RANK)}"
            )
        self._seq += 1
        event = OracleEvent(
            time_s=float(time_s), kind=kind, tie=int(tie),
            seq=self._seq, payload=payload,
        )
        heapq.heappush(self._heap, (event.sort_key, event))
        return event

    def _pop(self) -> OracleEvent:
        return heapq.heappop(self._heap)[1]

    def run(
        self,
        apply: Callable[[OracleEvent], None],
        round_fn: Callable[[float], bool],
    ) -> None:
        """Step the heap to exhaustion."""
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


def oracle_pick_job(self, now, queue, free_chips, ctx):
    return min(
        queue,
        key=lambda j: (
            j.deadline_s if j.deadline_s is not None else math.inf,
        ) + _fifo_key(j),
    )


def oracle_pick_chip(self, now, job, free_chips, ctx):
    return min(
        free_chips,
        key=lambda c: (
            ctx.transfer_s(job, c) + ctx.estimate(job, c).service_s,
            c.chip_id,
        ),
    )


def oracle_select_preemption(self, now, queue, running, ctx):
    deadline_jobs = [j for j in queue if j.deadline_s is not None]
    if not deadline_jobs:
        return None
    challenger = min(deadline_jobs, key=_edf_key)
    candidates = [r for r in running if r.preemptable]
    if not candidates:
        return None
    victim = max(
        candidates,
        key=lambda r: (r.deadline_key, r.completion_s, r.chip.chip_id),
    )
    if challenger.deadline_s >= victim.deadline_key:
        return None  # never preempt a tighter (or equal) deadline
    transfer = ctx.transfer_s(challenger, victim.chip)
    service = ctx.estimate(challenger, victim.chip).service_s
    meets_if_preempted = now + transfer + service <= challenger.deadline_s
    earliest_free = min(r.completion_s for r in running)
    misses_if_waiting = (
        earliest_free + transfer + service > challenger.deadline_s
    )
    if meets_if_preempted and misses_if_waiting:
        return victim
    return None


class OracleDeadlineScheduler(DeadlineScheduler):
    pick_job = oracle_pick_job
    pick_chip = oracle_pick_chip


class OracleEdfPreemptScheduler(EdfPreemptScheduler):
    pick_job = oracle_pick_job
    pick_chip = oracle_pick_chip
    select_preemption = oracle_select_preemption


#: The policies whose bodies the oracle keeps, by the class it replaces.
ORACLE_POLICIES = {
    DeadlineScheduler: OracleDeadlineScheduler,
    EdfPreemptScheduler: OracleEdfPreemptScheduler,
}


class OracleEngine(ClusterEngine):
    def __init__(self, fleet, policy, *args, **kwargs):
        oracle = ORACLE_POLICIES.get(type(policy))
        super().__init__(
            fleet, oracle() if oracle is not None else policy,
            *args, **kwargs,
        )
        self.events = OracleEventEngine()

    def run(self, source) -> List[JobRecord]:
        self._source = source
        trace = source.trace
        if self.prefetch_jobs:
            self._prefetch(trace)
        for job in trace.jobs:
            self.events.schedule(
                job.arrival_s, ARRIVAL, tie=job.job_id, payload=job
            )
        self.events.run(self._apply, self._round)
        self._audit(trace)
        return [self.records[job.job_id] for job in trace.jobs]

    def _round(self, now: float) -> bool:
        produced = False
        while self.queue and self.free_chips:
            pick = self.policy.select(now, self.queue, self.free_chips, self)
            if pick is None:
                break
            job, chip = pick
            queued = any(queued is job for queued in self.queue)
            if not queued or chip.chip_id not in self._free_ids:
                raise RuntimeError(
                    f"policy {self.policy.name!r} selected an invalid "
                    f"pair: {job.label} -> {chip.label}"
                )
            # Remove the picked job *by identity* (frozen dataclasses
            # compare by field, and queues may hold equal duplicates).
            for index, queued_job in enumerate(self.queue):
                if queued_job is job:
                    del self.queue[index]
                    break
            self._take_chip(chip)
            self.events.schedule(now, DISPATCH, payload=(job, chip))
            produced = True
        if self.queue and not self.free_chips and self.busy:
            victim = self._consider_preemption(now)
            if victim is not None:
                self.events.schedule(
                    now, PREEMPT, tie=victim.chip.chip_id, payload=victim
                )
                produced = True
        return produced

    def _consider_preemption(self, now: float) -> Optional[RunningJob]:
        # Views in chip-id order, each built once at dispatch; one
        # dispatched at *now* has made no progress and is passed as a
        # preemptable=False twin.
        running = [
            execution.view
            if execution.dispatched_s < now
            else replace(execution.view, preemptable=False)
            for _, execution in sorted(self.busy.items())
        ]
        victim = self.policy.select_preemption(now, self.queue, running, self)
        if victim is None:
            return None
        execution = self.busy.get(victim.chip.chip_id)
        if (
            execution is None
            or execution.token != victim.token
            or not victim.preemptable
        ):
            raise RuntimeError(
                f"policy {self.policy.name!r} selected an invalid "
                f"preemption victim on chip {victim.chip.chip_id}"
            )
        return victim
