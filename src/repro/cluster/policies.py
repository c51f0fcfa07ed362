"""Pluggable cluster-level scheduling policies.

Each policy answers one question, deterministically: given the queued
jobs, the currently free chips and a :class:`SchedulingContext`, which
(job, chip) pair dispatches next?  The service calls ``select`` in a
loop until it returns ``None`` or chips/queue run dry, so a policy never
manages time -- only choice order.

Policies register in the :data:`SCHEDULERS` dict (the idiom of the ray
scheduler prototype's ``schedulers`` map) and must be pure functions of
their inputs: same queue, same free chips, same context => same pick.
All tie-breaks bottom out on ``(arrival_s, job_id)`` for jobs and
``chip_id`` for chips, so two runs of the same trace are bit-identical.

Built-in policies:

``fifo``
    Arrival order onto the lowest-numbered free chip.
``priority``
    Highest :attr:`~repro.cluster.jobs.ClusterJob.priority` first
    (FIFO within a level).
``edf``
    Earliest absolute deadline first; best-effort jobs run after every
    deadlined job.  The chip pick minimizes estimated completion
    (transfer + service), so tight deadlines get the fastest landing.
``least_edp``
    Energy-aware: FIFO job order, chip chosen to minimize the job's
    estimated energy-delay product including staging time.
``locality``
    Transfer-cost-aware: prefers (job, chip) pairs whose dataset is
    already resident on the chip (zero staging); falls back to the
    cheapest transfer for the head job.
``power_aware``
    Cap-aware: deadline jobs land on the highest-effective-cap chips
    (uncapped first), best-effort jobs soak up the capped ones, and a
    fleet-level power budget (:attr:`repro.cluster.fleet.Fleet.
    power_budget_w`) holds back dispatches that would push the
    concurrently-busy chips' combined caps over budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Type

from repro.cluster.costmodel import JobEstimate, SpeedStep
from repro.cluster.fleet import ChipSpec
from repro.cluster.jobs import ClusterJob


class SchedulingContext(Protocol):
    """What a policy may observe about the cluster mid-run."""

    def estimate(self, job: ClusterJob, chip: ChipSpec) -> JobEstimate:
        """Predicted service time / energy of *job* on *chip*."""
        ...

    def transfer_s(self, job: ClusterJob, chip: ChipSpec) -> float:
        """Staging time for *job*'s input on *chip* (0 when resident)."""
        ...

    def is_resident(self, job: ClusterJob, chip: ChipSpec) -> bool:
        """Whether *job*'s dataset is already resident on *chip*."""
        ...


@dataclass(frozen=True)
class RunningJob:
    """A preemption policy's view of one in-flight execution."""

    job: ClusterJob
    chip: ChipSpec
    dispatched_s: float
    #: When the input transfer finishes (== dispatched_s when resident).
    transfer_end_s: float
    completion_s: float
    #: The engine forbids preempting an execution dispatched at the
    #: current instant (it has made no progress; evicting it could only
    #: thrash), so same-timestamp preemption cascades always terminate.
    preemptable: bool
    #: Engine handle identifying this execution (opaque to policies).
    token: int

    @property
    def deadline_key(self) -> float:
        d = self.job.deadline_s
        return d if d is not None else math.inf


def _fifo_key(job: ClusterJob) -> Tuple[float, int]:
    return (job.arrival_s, job.job_id)


def _edf_key(job: ClusterJob) -> Tuple:
    return (
        job.deadline_s if job.deadline_s is not None else math.inf,
    ) + _fifo_key(job)


def speed_steps_for(chip: ChipSpec) -> Tuple[SpeedStep, ...]:
    """The chip's DVFS ladder as dispatchable speed steps, slowest to
    fastest (nominal last), derived from its technology node."""
    ladder = chip.tech_spec().ladder()
    nominal = ladder[-1]
    return tuple(
        SpeedStep(
            frequency_hz=point.frequency_hz,
            voltage_v=point.voltage_v,
            nominal_frequency_hz=nominal.frequency_hz,
            nominal_voltage_v=nominal.voltage_v,
        )
        for point in ladder
    )


class ClusterScheduler:
    """Base class: FIFO job, lowest-id chip.  Subclasses override
    :meth:`pick_job` and/or :meth:`pick_chip`."""

    #: Registry name (set by :func:`register_scheduler`).
    name = "base"

    def pick_job(
        self,
        now: float,
        queue: Sequence[ClusterJob],
        free_chips: Sequence[ChipSpec],
        ctx: SchedulingContext,
    ) -> ClusterJob:
        return min(queue, key=_fifo_key)

    def pick_chip(
        self,
        now: float,
        job: ClusterJob,
        free_chips: Sequence[ChipSpec],
        ctx: SchedulingContext,
    ) -> ChipSpec:
        return min(free_chips, key=lambda c: c.chip_id)

    def select(
        self,
        now: float,
        queue: Sequence[ClusterJob],
        free_chips: Sequence[ChipSpec],
        ctx: SchedulingContext,
    ) -> Optional[Tuple[ClusterJob, ChipSpec]]:
        """The next dispatch, or ``None`` to leave the queue waiting."""
        if not queue or not free_chips:
            return None
        job = self.pick_job(now, queue, free_chips, ctx)
        chip = self.pick_chip(now, job, free_chips, ctx)
        return job, chip

    # -- engine extension hooks (defaults keep legacy policies inert) -- #

    def speed_for(
        self,
        now: float,
        job: ClusterJob,
        chip: ChipSpec,
        queue: Sequence[ClusterJob],
        ctx: SchedulingContext,
    ) -> Optional[SpeedStep]:
        """DVFS step to dispatch *job* at (``None`` = nominal).  Called
        once per dispatch, after :meth:`select`; *queue* holds the jobs
        left waiting."""
        return None

    def select_preemption(
        self,
        now: float,
        queue: Sequence[ClusterJob],
        running: Sequence[RunningJob],
        ctx: SchedulingContext,
    ) -> Optional[RunningJob]:
        """An in-flight execution to checkpoint and requeue, or ``None``.
        Consulted only when jobs are waiting and no chip is free."""
        return None


class FifoScheduler(ClusterScheduler):
    """Arrival order, lowest-numbered free chip."""


class PriorityScheduler(ClusterScheduler):
    """Strict priority tiers; FIFO within a tier."""

    def pick_job(self, now, queue, free_chips, ctx):
        return min(queue, key=lambda j: (-j.priority,) + _fifo_key(j))


def _earliest_deadline_job(
    queue: Sequence[ClusterJob], best_effort: bool
) -> Optional[ClusterJob]:
    """``min(jobs, key=_edf_key)`` in one pass, without a key tuple per
    job: the first job with the least (deadline, arrival_s, job_id).
    *jobs* is *queue*, or only its deadline jobs when *best_effort* is
    false; ``None`` when there are none."""
    best = None
    best_deadline = math.inf
    for job in queue:
        deadline = job.deadline_s
        if deadline is None:
            if not best_effort:
                continue
            deadline = math.inf
        if best is None or deadline < best_deadline or (
            deadline == best_deadline
            and (
                job.arrival_s < best.arrival_s
                or (
                    job.arrival_s == best.arrival_s
                    and job.job_id < best.job_id
                )
            )
        ):
            best = job
            best_deadline = deadline
    return best


class DeadlineScheduler(ClusterScheduler):
    """Earliest-deadline-first, landing on the fastest-completing chip."""

    def pick_job(self, now, queue, free_chips, ctx):
        if not queue:
            raise ValueError("pick_job needs a non-empty queue")
        return _earliest_deadline_job(queue, best_effort=True)

    def pick_chip(self, now, job, free_chips, ctx):
        # min over (transfer + service, chip_id) in one pass; each chip
        # is priced once, transfer first, in free-chip order.
        best = None
        best_finish = 0.0
        for chip in free_chips:
            transfer = ctx.transfer_s(job, chip)
            finish = transfer + ctx.estimate(job, chip).service_s
            if best is None or finish < best_finish or (
                finish == best_finish and chip.chip_id < best.chip_id
            ):
                best = chip
                best_finish = finish
        if best is None:
            raise ValueError("pick_chip needs a free chip")
        return best


class LeastEdpScheduler(ClusterScheduler):
    """FIFO job order; chip minimizing the job's energy-delay product
    (staging time included in the delay term)."""

    def pick_chip(self, now, job, free_chips, ctx):
        def edp_of(chip: ChipSpec) -> Tuple[float, int]:
            estimate = ctx.estimate(job, chip)
            delay = ctx.transfer_s(job, chip) + estimate.service_s
            return (estimate.energy_j * delay, chip.chip_id)

        return min(free_chips, key=edp_of)


class LocalityScheduler(ClusterScheduler):
    """Transfer-cost-aware: resident (job, chip) pairs dispatch first."""

    def select(self, now, queue, free_chips, ctx):
        if not queue or not free_chips:
            return None
        # First resident pair, scanning jobs in FIFO order.
        for job in sorted(queue, key=_fifo_key):
            resident = [c for c in free_chips if ctx.is_resident(job, c)]
            if resident:
                return job, min(resident, key=lambda c: c.chip_id)
        # Nothing resident anywhere: head job, cheapest transfer.
        job = min(queue, key=_fifo_key)
        chip = min(
            free_chips,
            key=lambda c: (ctx.transfer_s(job, c), c.chip_id),
        )
        return job, chip


class PowerAwareScheduler(ClusterScheduler):
    """Cap-aware placement under an optional fleet power budget.

    Deadline jobs (EDF order) land on the free chip with the *highest*
    effective cap -- uncapped chips first, so tight deadlines never eat
    governor throttling -- while best-effort jobs soak up the capped
    chips (lowest effective cap first).  When the fleet carries a
    ``power_budget_w``, a dispatch that would push the busy chips'
    combined effective caps over budget is held back until completions
    return headroom; with the whole fleet idle the cheapest chip runs
    anyway (a job the budget can never admit must not starve).
    """

    def _chip_power_w(self, chip: ChipSpec) -> float:
        """The chip's effective worst-case draw: its chip-level cap when
        set, else the estimated uncapped peak for its die and node."""
        from repro.power.frontier import chip_peak_power_w

        cap = chip.cap()
        if cap is not None and cap.chip_cap_w is not None:
            return float(cap.chip_cap_w)
        return chip_peak_power_w(chip.num_workers, tech=chip.tech_spec())

    def select(self, now, queue, free_chips, ctx):
        if not queue or not free_chips:
            return None
        candidates = list(free_chips)
        fleet = getattr(ctx, "fleet", None)
        budget = getattr(fleet, "power_budget_w", None)
        all_idle = True
        if budget is not None and fleet is not None:
            free_ids = {chip.chip_id for chip in free_chips}
            drawn = sum(
                self._chip_power_w(chip)
                for chip in fleet
                if chip.chip_id not in free_ids
            )
            all_idle = drawn == 0.0
            headroom = budget - drawn
            affordable = [
                chip for chip in candidates
                if self._chip_power_w(chip) <= headroom
            ]
            if affordable:
                candidates = affordable
            elif not all_idle:
                return None  # wait for completions to return headroom
            else:
                candidates = [
                    min(candidates, key=lambda c: (self._chip_power_w(c), c.chip_id))
                ]
        job = min(
            queue,
            key=lambda j: (
                j.deadline_s if j.deadline_s is not None else math.inf,
            ) + _fifo_key(j),
        )
        def effective_cap(chip: ChipSpec) -> float:
            cap = chip.cap()
            if cap is None or cap.chip_cap_w is None:
                return math.inf
            return float(cap.chip_cap_w)

        if job.deadline_s is not None:
            chip = min(
                candidates, key=lambda c: (-effective_cap(c), c.chip_id)
            )
        else:
            chip = min(
                candidates, key=lambda c: (effective_cap(c), c.chip_id)
            )
        return job, chip


class EdfPreemptScheduler(DeadlineScheduler):
    """EDF with checkpoint-and-requeue preemption.

    Dispatch order is plain EDF.  When deadline jobs are waiting and no
    chip is free, the running job with the *latest* deadline (best-effort
    jobs count as infinitely late) is checkpointed and requeued -- but
    only when the waiting job would miss its deadline if it waited for
    the earliest completion AND still meets it if dispatched now on the
    victim's chip.  Checkpointing preserves service progress (partial
    work resumes, energy is charged exactly once); an unfinished input
    transfer is the only work a preemption discards.
    """

    def select_preemption(self, now, queue, running, ctx):
        challenger = _earliest_deadline_job(queue, best_effort=False)
        if challenger is None:
            return None
        # One pass over the running set: the victim is the first
        # preemptable execution with the greatest (deadline, completion,
        # chip_id), and earliest_free the least completion of them all.
        victim = earliest_free = None
        victim_deadline = victim_completion = 0.0
        for running_job in running:
            completion = running_job.completion_s
            if earliest_free is None or completion < earliest_free:
                earliest_free = completion
            if not running_job.preemptable:
                continue
            deadline = running_job.job.deadline_s
            if deadline is None:
                deadline = math.inf
            if victim is None or deadline > victim_deadline or (
                deadline == victim_deadline
                and (
                    completion > victim_completion
                    or (
                        completion == victim_completion
                        and running_job.chip.chip_id > victim.chip.chip_id
                    )
                )
            ):
                victim = running_job
                victim_deadline = deadline
                victim_completion = completion
        if victim is None:
            return None
        if challenger.deadline_s >= victim_deadline:
            return None  # never preempt a tighter (or equal) deadline
        transfer = ctx.transfer_s(challenger, victim.chip)
        service = ctx.estimate(challenger, victim.chip).service_s
        meets_if_preempted = now + transfer + service <= challenger.deadline_s
        misses_if_waiting = (
            earliest_free + transfer + service > challenger.deadline_s
        )
        if meets_if_preempted and misses_if_waiting:
            return victim
        return None


class SpeedScaleScheduler(ClusterScheduler):
    """Deadline-driven speed scaling (after arXiv:1402.2810).

    Job order is EDF over the *meetable* deadline jobs -- a job whose
    deadline no free chip can meet even at nominal speed is demoted to
    the best-effort pool instead of burning the fleet's fastest slot on
    a lost cause (which is how this policy beats plain EDF's hit rate).
    The chip pick minimizes nominal completion, and the dispatch runs at
    the *slowest* DVFS rail of the chip's ladder that still meets the
    deadline -- but only when no other deadline job is left waiting, so
    stolen slack never cascades into someone else's miss.  Best-effort
    and demoted jobs run FIFO at nominal on the energy-cheapest chip.
    """

    def _completion(self, now, job, chip, ctx) -> float:
        return (
            now
            + ctx.transfer_s(job, chip)
            + ctx.estimate(job, chip).service_s
        )

    def select(self, now, queue, free_chips, ctx):
        if not queue or not free_chips:
            return None
        best = None
        for job in sorted(
            (j for j in queue if j.deadline_s is not None), key=_edf_key
        ):
            chip = min(
                free_chips,
                key=lambda c: (self._completion(now, job, c, ctx), c.chip_id),
            )
            if self._completion(now, job, chip, ctx) <= job.deadline_s:
                best = (job, chip)
                break
        if best is not None:
            return best
        # Best-effort pool: no-deadline jobs and demoted (unmeetable)
        # deadline jobs, FIFO, on the energy-cheapest free chip.
        job = min(queue, key=_fifo_key)
        chip = min(
            free_chips,
            key=lambda c: (ctx.estimate(job, c).energy_j, c.chip_id),
        )
        return job, chip

    def speed_for(self, now, job, chip, queue, ctx):
        if job.deadline_s is None:
            return None
        if any(j.deadline_s is not None for j in queue):
            return None  # contended: leave the slack to the waiting jobs
        transfer = ctx.transfer_s(job, chip)
        service = ctx.estimate(job, chip).service_s
        for step in speed_steps_for(chip):  # slowest first
            if now + transfer + service * step.time_scale <= job.deadline_s:
                return None if step.is_nominal else step
        return None  # not meetable even at nominal: run flat out


class TechAwareScheduler(ClusterScheduler):
    """Route jobs by technology class over a heterogeneous fleet.

    Deadline jobs (EDF order) land on the most advanced free node --
    smallest feature size first, estimated completion breaking ties --
    while best-effort jobs soak up the efficiency classes (big.LITTLE /
    in-order mixes first, then older nodes), minimizing estimated
    energy.  Over :func:`repro.cluster.fleet.hetero_fleet` this sends
    deadline work to the 22 nm parts and background work to the
    big.LITTLE 32 nm chips, per the hybrid job-driven discipline of
    arXiv:1808.08040.
    """

    def pick_job(self, now, queue, free_chips, ctx):
        deadline_jobs = [j for j in queue if j.deadline_s is not None]
        if deadline_jobs:
            return min(deadline_jobs, key=_edf_key)
        return min(queue, key=_fifo_key)

    def pick_chip(self, now, job, free_chips, ctx):
        if job.deadline_s is not None:
            return min(
                free_chips,
                key=lambda c: (
                    c.node_nm,
                    ctx.transfer_s(job, c) + ctx.estimate(job, c).service_s,
                    c.chip_id,
                ),
            )
        return min(
            free_chips,
            key=lambda c: (
                0 if c.is_efficiency_class else 1,
                -c.node_nm,
                ctx.estimate(job, c).energy_j,
                c.chip_id,
            ),
        )


#: The pluggable policy registry (ray-scheduler-prototype style).
SCHEDULERS: Dict[str, Type[ClusterScheduler]] = {}


def register_scheduler(
    name: str, cls: Type[ClusterScheduler]
) -> Type[ClusterScheduler]:
    """Register a policy class under *name* (overwrites are rejected)."""
    if name in SCHEDULERS:
        raise ValueError(f"scheduler {name!r} already registered")
    cls.name = name
    SCHEDULERS[name] = cls
    return cls


register_scheduler("fifo", FifoScheduler)
register_scheduler("priority", PriorityScheduler)
register_scheduler("edf", DeadlineScheduler)
register_scheduler("least_edp", LeastEdpScheduler)
register_scheduler("locality", LocalityScheduler)
register_scheduler("power_aware", PowerAwareScheduler)
register_scheduler("edf_preempt", EdfPreemptScheduler)
register_scheduler("speed_scale", SpeedScaleScheduler)
register_scheduler("tech_aware", TechAwareScheduler)


def create_scheduler(name: str) -> ClusterScheduler:
    """Instantiate a registered policy by name."""
    if name not in SCHEDULERS:
        raise KeyError(
            f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[name]()


def scheduler_names() -> List[str]:
    """Registered policy names, in registration order."""
    return list(SCHEDULERS)
