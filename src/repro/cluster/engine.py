"""The cluster engine: one run of a source against a fleet.

:class:`ClusterEngine` executes one workload by stepping the typed
event heap of :mod:`repro.cluster.events`:

* ``ARRIVAL`` / ``RETRY`` events feed admission control.  Arrivals
  enter the heap one at a time, in trace order.  A full queue consults
  the run's :class:`~repro.cluster.arrivals.Source`: open-loop sources
  shed the job terminally (the legacy discipline), closed-loop sources
  schedule a ``RETRY`` after seeded exponential backoff.
* After every drained timestamp the **scheduling round** runs: the
  policy's ``select`` loop emits ``DISPATCH`` events against
  incrementally maintained views (the waiting queue and the sorted
  free-chip list -- no per-call copies), and when jobs wait with no
  chip free, ``select_preemption`` may emit a ``PREEMPT``.  It sees the
  busy executions in a chip-ordered tuple that is rebuilt only when the
  busy set changes or the clock passes a same-instant dispatch.  Each
  execution brings two :class:`~repro.cluster.policies.RunningJob`
  views, both built at dispatch: a preemptable one, and the
  ``preemptable=False`` twin the tuple holds at the instant the
  execution started.  A policy that keeps the base hook, which never
  preempts, is not asked.
* ``DISPATCH`` starts an execution: the cost model prices the job on
  the chip (optionally re-timed at a policy-chosen DVFS
  :class:`~repro.cluster.costmodel.SpeedStep`), and a ``COMPLETE`` is
  scheduled.  A segment whose service time or energy is NaN, infinite
  or negative fails the run with one ``ValueError`` naming the job and
  the chip, as does a retry instant that is not finite: such a time
  would stall the clock, run it backwards, or end in a record JSON
  cannot hold.  Dataset residency is granted when the staging transfer
  *finishes* -- at completion or at a post-transfer preemption -- never
  at dispatch, so an interrupted transfer cannot gift free residency.
* ``PREEMPT`` checkpoints an execution: service progress is preserved
  as a work fraction (energy already burned stays charged, unfinished
  work is un-charged -- no joule is ever counted twice), an unfinished
  transfer is discarded into ``wasted_transfer_s``, and the job is
  requeued.
* When the heap drains, an end-of-run audit requires an empty queue, no
  busy chip and a terminal record for every job; a policy that leaves
  work undone fails the run instead of leaving it on record as done.

The engine is also the :class:`~repro.cluster.policies.SchedulingContext`
the policy observes.  With an open-loop source and a non-preemptive,
non-scaling policy, every arithmetic operation and tie-break reproduces
the pre-engine ``ClusterService.run`` loop bit for bit (pinned by the
golden record tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.cluster.arrivals import Source
from repro.cluster.costmodel import CostModel, JobEstimate, scale_estimate
from repro.cluster.events import (
    ARRIVAL,
    COMPLETE,
    DISPATCH,
    PREEMPT,
    RETRY,
    Event,
    EventEngine,
)
from repro.cluster.fleet import ChipSpec, Fleet
from repro.cluster.jobs import (
    COMPLETED,
    PREEMPTED,
    REJECTED,
    RETRYING,
    TERMINAL_STATUSES,
    ClusterJob,
    JobRecord,
)
from repro.cluster.policies import ClusterScheduler, RunningJob
from repro.telemetry import get_tracer


@dataclass
class _Execution:
    """In-flight bookkeeping for one dispatched segment."""

    job: ClusterJob
    record: JobRecord
    chip: ChipSpec
    dispatched_s: float
    transfer_s: float
    transfer_end_s: float
    #: Planned service time / energy of *this segment* (the remaining
    #: work fraction at the dispatch speed).
    service_s: float
    energy_j: float
    #: Work fraction already completed when this segment started.
    work_start: float
    completion_s: float
    token: int
    #: The preemption policy's views of this execution, both built at
    #: dispatch: ``view`` is preemptable, ``twin`` is the same view with
    #: ``preemptable=False`` (what the policy sees at the dispatch
    #: instant, when the execution has made no progress).
    view: RunningJob
    twin: RunningJob
    speed_label: Optional[str] = None
    cancelled: bool = False


class ClusterEngine:
    """One run: a source served onto a fleet by a policy.

    The engine is single-use -- construct, :meth:`run`, read the
    records.  It doubles as the policy's ``SchedulingContext``.
    """

    def __init__(
        self,
        fleet: Fleet,
        policy: ClusterScheduler,
        cost_model: CostModel,
        max_queue_depth: int,
        prefetch_jobs: Optional[int] = None,
    ):
        self.fleet = fleet
        self.policy = policy
        self.cost_model = cost_model
        self.max_queue_depth = int(max_queue_depth)
        self.prefetch_jobs = prefetch_jobs
        self.events = EventEngine()
        self.records: Dict[int, JobRecord] = {}
        #: Jobs waiting for a chip, in admission order.  Policies read
        #: this view directly -- never copied -- and must not mutate it.
        self.queue: List[ClusterJob] = []
        #: Free chips sorted by chip_id, maintained incrementally (the
        #: legacy loop rebuilt this list from a dict on every policy
        #: call -- O(J x C) over a run).
        self.free_chips: List[ChipSpec] = list(fleet.chips)
        self._free_ids: Set[int] = {chip.chip_id for chip in fleet}
        self.busy: Dict[int, _Execution] = {}
        self.resident: Dict[int, Set[str]] = {
            chip.chip_id: set() for chip in fleet
        }
        #: job_id -> completed work fraction of checkpointed jobs.
        self.progress: Dict[int, float] = {}
        #: (app, scale, seed) -> dataset_key, formatted once per dataset
        #: rather than on every residency check.
        self._dataset_keys: Dict[Tuple[str, float, int], str] = {}
        self._source: Optional[Source] = None
        self._arrivals: Iterator[ClusterJob] = iter(())
        self._token = 0
        self._tracer = get_tracer()
        #: Whether the policy has a preemption hook of its own; the
        #: base hook never preempts, so the round skips it.
        hook = getattr(policy.select_preemption, "__func__", None)
        self._preempts = hook is not ClusterScheduler.select_preemption
        #: The chip-ordered views the preemption hook last saw, kept
        #: until the busy set changes (``None``) or the clock passes
        #: ``_views_until``, the instant of a same-instant twin in it.
        self._views: Optional[Tuple[RunningJob, ...]] = None
        self._views_until = math.inf

    # ------------------------------------------------------------------ #
    # the SchedulingContext the policy observes
    # ------------------------------------------------------------------ #

    def estimate(self, job: ClusterJob, chip: ChipSpec) -> JobEstimate:
        return self.cost_model.estimate(job, chip)

    def transfer_s(self, job: ClusterJob, chip: ChipSpec) -> float:
        if self.is_resident(job, chip):
            return 0.0
        return self.fleet.transfer_s(job.input_mb)

    def is_resident(self, job: ClusterJob, chip: ChipSpec) -> bool:
        resident = self.resident.get(chip.chip_id)
        return bool(resident) and self._dataset_key(job) in resident

    def _dataset_key(self, job: ClusterJob) -> str:
        dataset = (job.app, job.scale, job.seed)
        key = self._dataset_keys.get(dataset)
        if key is None:
            key = self._dataset_keys[dataset] = job.dataset_key
        return key

    # ------------------------------------------------------------------ #

    def run(self, source: Source) -> List[JobRecord]:
        """Serve *source* to completion; records in trace order."""
        self._source = source
        trace = source.trace
        if self.prefetch_jobs:
            self._prefetch(trace)
        # Arrivals enter the heap one at a time, each when the one before
        # it is applied: the trace is sorted by (arrival_s, job_id), the
        # heap's order among arrivals, so every event pops as it would
        # with all of them queued up front, from a heap that stays small.
        self._arrivals = iter(trace.jobs)
        self._schedule_arrival()
        self.events.run(self._apply, self._round)
        self._audit(trace)
        return [self.records[job.job_id] for job in trace.jobs]

    def _audit(self, trace) -> None:
        """End-of-run audit: once the heap drains, nothing may be left
        queued or busy and every record must be terminal.  A policy whose
        ``select`` never dispatches would otherwise leave its queue on
        record as completed (admission marks records so)."""

        def finished(record: JobRecord) -> bool:
            if record.status == COMPLETED:
                return record.completed_s is not None
            return record.status in TERMINAL_STATUSES

        first = next(
            (job for job in trace.jobs if not finished(self.records[job.job_id])),
            None,
        )
        chips = len(self.fleet.chips)
        if (
            first is None
            and not self.queue
            and not self.busy
            and len(self.free_chips) == chips
        ):
            return
        raise RuntimeError(
            f"policy {self.policy.name!r} left the run unfinished: first "
            f"unfinished job {first.label if first is not None else None}; "
            f"{len(self.queue)} queued, {len(self.busy)} busy, "
            f"{len(self.free_chips)} of {chips} chips free"
        )

    def _prefetch(self, trace) -> None:
        """Resolve the run's distinct (study, chip-class) units in one
        parallel batch before the event loop starts."""
        job_classes = {}
        for job in trace.jobs:
            job_classes.setdefault((job.app, job.scale, job.seed), job)
        chip_classes = {}
        for chip in self.fleet:
            chip_classes.setdefault(chip.class_key, chip)
        specs = []
        for _, job in sorted(job_classes.items()):
            for _, chip in sorted(
                chip_classes.items(), key=lambda kv: kv[1].chip_id
            ):
                specs.append(job.spec_for(chip))
        stats = self.cost_model.prefetch(specs, jobs=self.prefetch_jobs)
        if self._tracer.enabled:
            self._tracer.counter_add(
                "cluster.prefetched_specs", float(stats["batch_size"])
            )

    # ------------------------------------------------------------------ #
    # event application
    # ------------------------------------------------------------------ #

    def _apply(self, event: Event) -> None:
        kind = event.kind
        if kind == ARRIVAL:
            self._schedule_arrival()
            self._admit(event.payload, event.time_s, attempts=1)
        elif kind == RETRY:
            job = event.payload
            record = self.records[job.job_id]
            self._admit(job, event.time_s, attempts=record.attempts + 1)
        elif kind == COMPLETE:
            execution = event.payload
            if not execution.cancelled:
                self._complete(execution, event.time_s)
        elif kind == PREEMPT:
            self._preempt(event.payload, event.time_s)
        elif kind == DISPATCH:
            job, chip = event.payload
            self._start(job, chip, event.time_s)

    def _schedule_arrival(self) -> None:
        job = next(self._arrivals, None)
        if job is not None:
            self.events.schedule(
                job.arrival_s, ARRIVAL, tie=job.job_id, payload=job
            )

    def _admit(self, job: ClusterJob, now: float, attempts: int) -> None:
        record = self.records.get(job.job_id)
        if record is None:
            record = JobRecord(job=job, status=COMPLETED)
            self.records[job.job_id] = record
        record.attempts = attempts
        if len(self.queue) < self.max_queue_depth:
            record.status = COMPLETED
            record.admitted_s = now
            self.queue.append(job)
            if self._tracer.enabled:
                self._tracer.counter_add("cluster.admitted", 1.0)
            return
        retry_at = self._source.retry_at(job, now, attempts)
        if retry_at is None:
            record.status = REJECTED
            if self._tracer.enabled:
                self._tracer.counter_add("cluster.rejected", 1.0)
                self._tracer.histogram_record(
                    "cluster.attempts", float(attempts)
                )
                self._tracer.span(
                    job.label, job.arrival_s, 0.0, cat="cluster",
                    pid="cluster", tid="rejected",
                )
            return
        if not math.isfinite(retry_at):
            raise ValueError(
                f"source scheduled a retry of {job.label} at {retry_at!r}: "
                f"a retry instant must be finite"
            )
        if retry_at <= now:
            raise RuntimeError(
                f"source scheduled a retry at {retry_at} <= now {now} "
                f"for {job.label}"
            )
        record.status = RETRYING
        self.events.schedule(retry_at, RETRY, tie=job.job_id, payload=job)
        if self._tracer.enabled:
            self._tracer.counter_add("cluster.retries", 1.0)
            self._tracer.histogram_record(
                "cluster.backoff_s", retry_at - now
            )

    def _start(self, job: ClusterJob, chip: ChipSpec, now: float) -> None:
        transfer = self.transfer_s(job, chip)
        estimate = self.cost_model.estimate(job, chip)
        step = self.policy.speed_for(now, job, chip, self.queue, self)
        scaled = scale_estimate(estimate, step)
        work_start = self.progress.get(job.job_id, 0.0)
        remaining = 1.0 - work_start
        segment_service = scaled.service_s * remaining
        segment_energy = scaled.energy_j * remaining
        if not (
            0.0 <= segment_service < math.inf
            and 0.0 <= segment_energy < math.inf
        ):
            raise ValueError(
                f"{job.label} on {chip.label}: segment service_s="
                f"{segment_service!r} and energy_j={segment_energy!r} "
                f"must be finite and >= 0"
            )
        record = self.records[job.job_id]
        record.status = COMPLETED
        record.chip_id = chip.chip_id
        record.dispatched_s = now
        record.transfer_s += transfer
        record.service_s += segment_service
        record.energy_j += segment_energy
        if step is not None:
            record.extra["dvfs"] = step.label
        completion = now + transfer + segment_service
        transfer_end = now + transfer
        self._token += 1
        token = self._token
        execution = _Execution(
            job=job,
            record=record,
            chip=chip,
            dispatched_s=now,
            transfer_s=transfer,
            transfer_end_s=transfer_end,
            service_s=segment_service,
            energy_j=segment_energy,
            work_start=work_start,
            completion_s=completion,
            token=token,
            view=RunningJob(
                job, chip, now, transfer_end, completion, True, token
            ),
            twin=RunningJob(
                job, chip, now, transfer_end, completion, False, token
            ),
            speed_label=step.label if step is not None else None,
        )
        self.busy[chip.chip_id] = execution
        self._views = None
        self.events.schedule(
            completion, COMPLETE, tie=chip.chip_id, payload=execution
        )
        if self._tracer.enabled:
            self._tracer.counter_add("cluster.dispatched", 1.0)
            self._tracer.histogram_record(
                "cluster.queue_wait_s", now - record.admitted_s
            )
            if now - record.admitted_s > 0.0:
                self._tracer.span(
                    job.label, record.admitted_s, now - record.admitted_s,
                    cat="cluster", pid="cluster", tid="queue",
                )
            self._tracer.span(
                job.label, now, transfer + segment_service,
                cat="cluster", pid="cluster", tid=f"chip{chip.chip_id}",
                app=job.app, transfer_s=transfer,
                service_s=segment_service,
            )

    def _complete(self, execution: _Execution, when: float) -> None:
        record = execution.record
        chip_id = execution.chip.chip_id
        del self.busy[chip_id]
        self._views = None
        self._release_chip(execution.chip)
        record.completed_s = when
        # Residency is granted when the transfer has actually landed --
        # which, on the completion path, it always has.
        self.resident[chip_id].add(self._dataset_key(execution.job))
        self.progress.pop(execution.job.job_id, None)
        if record.preemptions:
            self._append_segment(record, execution, 1.0,
                                 execution.service_s, execution.energy_j,
                                 execution.transfer_s)
        if self._tracer.enabled:
            self._tracer.counter_add("cluster.completed", 1.0)
            self._tracer.histogram_record("cluster.latency_s", record.latency_s)
            self._tracer.histogram_record(
                "cluster.attempts", float(record.attempts)
            )
            if record.deadline_met is False:
                self._tracer.counter_add("cluster.deadline_misses", 1.0)

    def _preempt(self, victim: RunningJob, now: float) -> None:
        execution = self.busy.get(victim.chip.chip_id)
        if (
            execution is None
            or execution.token != victim.token
            or execution.cancelled
        ):
            return  # stale preemption against a finished execution
        execution.cancelled = True
        chip_id = execution.chip.chip_id
        del self.busy[chip_id]
        self._views = None
        self._release_chip(execution.chip)
        record = execution.record
        if execution.transfer_s > 0.0 and now < execution.transfer_end_s:
            # Transfer cut short: the staged bytes are lost.  Keep the
            # time actually spent on the wire charged, uncharge the
            # remainder and the whole (never started) service segment.
            spent = now - execution.dispatched_s
            record.transfer_s -= execution.transfer_end_s - now
            record.wasted_transfer_s += spent
            record.service_s -= execution.service_s
            record.energy_j -= execution.energy_j
            self._append_segment(
                record, execution, execution.work_start, 0.0, 0.0, spent
            )
        else:
            # Transfer landed (grant residency) and the service ran for
            # a while: checkpoint the executed fraction, uncharge the
            # unfinished remainder exactly once.
            self.resident[chip_id].add(self._dataset_key(execution.job))
            executed = now - execution.transfer_end_s
            if execution.service_s > 0.0:
                executed_frac = executed / execution.service_s
            else:
                executed_frac = 1.0
            unfinished = execution.service_s - executed
            record.service_s -= unfinished
            record.energy_j -= execution.energy_j * (1.0 - executed_frac)
            new_progress = (
                execution.work_start
                + (1.0 - execution.work_start) * executed_frac
            )
            self.progress[execution.job.job_id] = new_progress
            self._append_segment(
                record, execution, new_progress, executed,
                execution.energy_j * executed_frac, execution.transfer_s,
            )
        record.preemptions += 1
        record.status = PREEMPTED
        self.queue.append(execution.job)
        if self._tracer.enabled:
            self._tracer.counter_add("cluster.preemptions", 1.0)
            self._tracer.span(
                execution.job.label, execution.dispatched_s,
                now - execution.dispatched_s, cat="cluster",
                pid="cluster", tid=f"chip{chip_id}", preempted=True,
            )

    @staticmethod
    def _append_segment(
        record: JobRecord,
        execution: _Execution,
        progress_to: float,
        service_s: float,
        energy_j: float,
        transfer_s: float,
    ) -> None:
        """Audit one executed segment on a preempted job's record.

        Segments partition the job's work fraction in [0, 1]; their
        service/energy sums equal the record's totals -- the
        no-double-counting invariant the property tests pin.
        """
        record.extra.setdefault("segments", []).append(
            {
                "chip_id": execution.chip.chip_id,
                "from": execution.work_start,
                "to": progress_to,
                "service_s": service_s,
                "energy_j": energy_j,
                "transfer_s": transfer_s,
                "speed": execution.speed_label,
            }
        )

    # ------------------------------------------------------------------ #
    # the scheduling round
    # ------------------------------------------------------------------ #

    def _take_chip(self, chip: ChipSpec) -> None:
        self._free_ids.remove(chip.chip_id)
        self.free_chips.remove(chip)  # sorted list, O(C) with tiny C

    def _release_chip(self, chip: ChipSpec) -> None:
        self._free_ids.add(chip.chip_id)
        # Insert by chip_id: ChipSpec defines no ordering, and
        # ``insort(..., key=)`` needs Python 3.10.
        index = sum(1 for free in self.free_chips if free.chip_id < chip.chip_id)
        self.free_chips.insert(index, chip)

    def _round(self, now: float) -> bool:
        produced = False
        while self.queue and self.free_chips:
            pick = self.policy.select(now, self.queue, self.free_chips, self)
            if pick is None:
                break
            job, chip = pick
            # Find the picked job *by identity* (frozen dataclasses
            # compare by field, and queues may hold equal duplicates).
            for index, queued in enumerate(self.queue):
                if queued is job:
                    break
            else:
                index = None
            if index is None or chip.chip_id not in self._free_ids:
                raise RuntimeError(
                    f"policy {self.policy.name!r} selected an invalid "
                    f"pair: {job.label} -> {chip.label}"
                )
            del self.queue[index]
            self._take_chip(chip)
            self.events.schedule(now, DISPATCH, payload=(job, chip))
            produced = True
        if self._preempts and self.queue and not self.free_chips and self.busy:
            victim = self._consider_preemption(now)
            if victim is not None:
                self.events.schedule(
                    now, PREEMPT, tie=victim.chip.chip_id, payload=victim
                )
                produced = True
        return produced

    def _running_views(self, now: float) -> Tuple[RunningJob, ...]:
        """The busy executions' views in chip-id order.

        Both views of an execution are built at dispatch; one dispatched
        at *now* has made no progress and is passed as its
        ``preemptable=False`` twin.  The tuple is rebuilt only when the
        busy set has changed or the clock has passed the instant of a
        twin it holds.
        """
        if self._views is None or now > self._views_until:
            views = []
            until = math.inf
            busy = self.busy
            for chip_id in sorted(busy):
                execution = busy[chip_id]
                if execution.dispatched_s < now:
                    views.append(execution.view)
                else:
                    views.append(execution.twin)
                    until = now
            self._views = tuple(views)
            self._views_until = until
        return self._views

    def _consider_preemption(self, now: float) -> Optional[RunningJob]:
        running = self._running_views(now)
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
