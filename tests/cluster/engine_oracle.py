"""Reference engine: the scheduling round as it was.

``ClusterEngine`` feeds arrivals into its heap one at a time, keeps the
preemption hook's chip-ordered view tuple until the busy set changes or
the clock passes a same-instant dispatch, and skips the hook for a
policy whose base hook never preempts.  :class:`OracleEngine` is the
engine without those three: every arrival is queued up front, and every
round that finds jobs waiting with no chip free re-sorts the busy
executions and builds their views again -- verbatim, so
``tests/cluster/test_record_oracle.py`` can require the same payload
text from both.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.cluster.engine import ClusterEngine
from repro.cluster.events import ARRIVAL, DISPATCH, PREEMPT
from repro.cluster.jobs import JobRecord
from repro.cluster.policies import RunningJob


class OracleEngine(ClusterEngine):
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
