"""Policy registry and per-policy choice behavior (stub context), and
the one-pass deadline policies against their ``min`` / ``max`` bodies."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import JobEstimate
from repro.cluster.fleet import ChipSpec
from repro.cluster.jobs import ClusterJob
from repro.cluster.policies import (
    SCHEDULERS,
    ClusterScheduler,
    RunningJob,
    create_scheduler,
    register_scheduler,
    scheduler_names,
)
from tests.cluster.engine_oracle import (
    oracle_pick_chip,
    oracle_pick_job,
    oracle_select_preemption,
)


class StubContext:
    """A SchedulingContext with scripted costs.

    ``estimates`` maps (job_id, chip_id) -> (service_s, energy_j);
    ``resident`` is a set of (job_id, chip_id) pairs with a local copy of
    the dataset; non-resident pairs pay ``transfer`` seconds of staging.
    """

    def __init__(self, estimates=None, resident=(), transfer=0.5):
        self.estimates = estimates or {}
        self.resident = set(resident)
        self.transfer = transfer

    def estimate(self, job, chip):
        service, energy = self.estimates.get(
            (job.job_id, chip.chip_id), (10.0, 1000.0)
        )
        return JobEstimate(service_s=service, energy_j=energy)

    def transfer_s(self, job, chip):
        return 0.0 if self.is_resident(job, chip) else self.transfer

    def is_resident(self, job, chip):
        return (job.job_id, chip.chip_id) in self.resident


def job(job_id, arrival=0.0, priority=0, deadline=None):
    return ClusterJob(
        job_id=job_id, app="histogram", arrival_s=arrival,
        priority=priority, deadline_s=deadline,
    )


CHIPS = (ChipSpec(chip_id=0), ChipSpec(chip_id=1), ChipSpec(chip_id=2))


class TestRegistry:
    def test_at_least_five_policies(self):
        assert len(SCHEDULERS) >= 5
        assert scheduler_names() == list(SCHEDULERS)
        assert {"fifo", "priority", "edf", "least_edp", "locality"} <= set(
            SCHEDULERS
        )

    def test_create_by_name_sets_name(self):
        for name in scheduler_names():
            assert create_scheduler(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            create_scheduler("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("fifo", ClusterScheduler)

    def test_empty_inputs_yield_none(self):
        ctx = StubContext()
        for name in scheduler_names():
            policy = create_scheduler(name)
            assert policy.select(0.0, [], list(CHIPS), ctx) is None
            assert policy.select(0.0, [job(0)], [], ctx) is None


class TestFifo:
    def test_arrival_order_lowest_chip(self):
        queue = [job(1, arrival=5.0), job(0, arrival=2.0)]
        picked, chip = create_scheduler("fifo").select(
            6.0, queue, list(CHIPS), StubContext()
        )
        assert picked.job_id == 0
        assert chip.chip_id == 0

    def test_tie_breaks_on_job_id(self):
        queue = [job(7, arrival=1.0), job(3, arrival=1.0)]
        picked, _ = create_scheduler("fifo").select(
            2.0, queue, list(CHIPS), StubContext()
        )
        assert picked.job_id == 3


class TestPriority:
    def test_highest_priority_first(self):
        queue = [job(0, arrival=0.0, priority=0), job(1, arrival=9.0, priority=3)]
        picked, _ = create_scheduler("priority").select(
            10.0, queue, list(CHIPS), StubContext()
        )
        assert picked.job_id == 1

    def test_fifo_within_tier(self):
        queue = [job(1, arrival=5.0, priority=2), job(0, arrival=1.0, priority=2)]
        picked, _ = create_scheduler("priority").select(
            6.0, queue, list(CHIPS), StubContext()
        )
        assert picked.job_id == 0


class TestDeadline:
    def test_earliest_deadline_first(self):
        queue = [
            job(0, arrival=0.0, deadline=500.0),
            job(1, arrival=1.0, deadline=100.0),
            job(2, arrival=2.0),  # best effort runs last
        ]
        picked, _ = create_scheduler("edf").select(
            3.0, queue, list(CHIPS), StubContext()
        )
        assert picked.job_id == 1

    def test_best_effort_after_deadlined(self):
        queue = [job(0, arrival=0.0), job(1, arrival=9.0, deadline=1e6)]
        picked, _ = create_scheduler("edf").select(
            10.0, queue, list(CHIPS), StubContext()
        )
        assert picked.job_id == 1

    def test_chip_minimizes_completion(self):
        # chip1 is slower but resident (no transfer); chip0 fast but cold.
        ctx = StubContext(
            estimates={(0, 0): (10.0, 1.0), (0, 1): (9.8, 1.0)},
            resident={(0, 1)},
            transfer=0.5,
        )
        _, chip = create_scheduler("edf").select(
            0.0, [job(0, deadline=50.0)], list(CHIPS[:2]), ctx
        )
        assert chip.chip_id == 1  # 9.8 < 10.5


class TestLeastEdp:
    def test_chip_minimizes_energy_delay_product(self):
        # chip0: 10 s x 1000 J = 10000; chip1: 12 s x 700 J = 8400.
        ctx = StubContext(
            estimates={(0, 0): (9.5, 1000.0), (0, 1): (11.5, 700.0)},
            transfer=0.5,
        )
        _, chip = create_scheduler("least_edp").select(
            0.0, [job(0)], list(CHIPS[:2]), ctx
        )
        assert chip.chip_id == 1

    def test_fifo_job_order(self):
        queue = [job(4, arrival=4.0), job(2, arrival=2.0)]
        picked, _ = create_scheduler("least_edp").select(
            5.0, queue, list(CHIPS), StubContext()
        )
        assert picked.job_id == 2


class TestLocality:
    def test_prefers_resident_pair(self):
        # Head job is cold everywhere; job 1's data lives on chip 2.
        ctx = StubContext(resident={(1, 2)})
        queue = [job(0, arrival=0.0), job(1, arrival=5.0)]
        picked, chip = create_scheduler("locality").select(
            6.0, queue, list(CHIPS), ctx
        )
        assert (picked.job_id, chip.chip_id) == (1, 2)

    def test_falls_back_to_head_job_cheapest_transfer(self):
        ctx = StubContext()  # nothing resident; uniform transfer
        queue = [job(1, arrival=5.0), job(0, arrival=0.0)]
        picked, chip = create_scheduler("locality").select(
            6.0, queue, list(CHIPS), ctx
        )
        assert (picked.job_id, chip.chip_id) == (0, 0)


def running(job_, chip, dispatched=0.0, transfer_end=0.5, completion=20.0,
            preemptable=True, token=1):
    from repro.cluster.policies import RunningJob

    return RunningJob(
        job=job_, chip=chip, dispatched_s=dispatched,
        transfer_end_s=transfer_end, completion_s=completion,
        preemptable=preemptable, token=token,
    )


class TestEdfPreempt:
    """Victim choice of the checkpoint-and-requeue EDF variant."""

    def setup_method(self):
        self.policy = create_scheduler("edf_preempt")
        # 10 s service + 0.5 s transfer everywhere (StubContext default).
        self.ctx = StubContext()

    def test_no_deadline_challenger_no_preemption(self):
        busy = [running(job(0), CHIPS[0], completion=50.0)]
        assert (
            self.policy.select_preemption(1.0, [job(1)], busy, self.ctx)
            is None
        )

    def test_evicts_the_latest_deadline_for_a_tight_one(self):
        busy = [
            running(job(0, deadline=100.0), CHIPS[0], completion=40.0),
            running(job(1), CHIPS[1], completion=60.0),  # best effort
        ]
        challenger = job(2, arrival=1.0, deadline=15.0)
        victim = self.policy.select_preemption(
            1.0, [challenger], busy, self.ctx
        )
        # Best-effort (deadline = inf) outranks any dated deadline.
        assert victim is not None and victim.chip.chip_id == 1

    def test_never_evicts_a_tighter_or_equal_deadline(self):
        busy = [running(job(0, deadline=15.0), CHIPS[0], completion=14.0)]
        challenger = job(1, arrival=1.0, deadline=15.0)
        assert (
            self.policy.select_preemption(1.0, [challenger], busy, self.ctx)
            is None
        )

    def test_no_eviction_when_preempting_cannot_meet(self):
        busy = [running(job(0), CHIPS[0], completion=40.0)]
        # Needs 1 + 0.5 + 10 = 11.5 but is due at 11: a lost cause.
        challenger = job(1, arrival=1.0, deadline=11.0)
        assert (
            self.policy.select_preemption(1.0, [challenger], busy, self.ctx)
            is None
        )

    def test_no_eviction_when_waiting_still_meets(self):
        busy = [running(job(0), CHIPS[0], completion=5.0)]
        # Earliest free chip at 5; 5 + 0.5 + 10 = 15.5 <= 30: just wait.
        challenger = job(1, arrival=1.0, deadline=30.0)
        assert (
            self.policy.select_preemption(1.0, [challenger], busy, self.ctx)
            is None
        )

    def test_skips_non_preemptable_executions(self):
        busy = [
            running(job(0), CHIPS[0], completion=40.0, preemptable=False),
        ]
        challenger = job(1, arrival=1.0, deadline=20.0)
        assert (
            self.policy.select_preemption(1.0, [challenger], busy, self.ctx)
            is None
        )


class TestSpeedScale:
    """Demotion of lost causes and slack-driven DVFS selection."""

    def setup_method(self):
        self.policy = create_scheduler("speed_scale")
        self.ctx = StubContext()  # 10 s service, 0.5 s transfer

    def test_demotes_unmeetable_deadline_jobs(self):
        doomed = job(0, arrival=0.0, deadline=1.0)  # needs 10.5 s
        feasible = job(1, arrival=5.0, deadline=100.0)
        picked, _ = self.policy.select(
            6.0, [doomed, feasible], list(CHIPS), self.ctx
        )
        # Plain EDF would pick the doomed job (earliest deadline);
        # demotion hands the slot to the meetable one.
        assert picked.job_id == 1

    def test_demoted_jobs_still_run_as_best_effort(self):
        doomed = job(0, arrival=0.0, deadline=1.0)
        picked, _ = self.policy.select(6.0, [doomed], list(CHIPS), self.ctx)
        assert picked.job_id == 0

    def test_no_scaling_while_deadline_work_waits(self):
        waiting = [job(1, arrival=0.0, deadline=500.0)]
        step = self.policy.speed_for(
            0.0, job(0, deadline=1e6), CHIPS[0], waiting, self.ctx
        )
        assert step is None

    def test_scales_to_slowest_step_that_meets(self):
        from repro.cluster.policies import speed_steps_for

        step = self.policy.speed_for(
            0.0, job(0, deadline=1e6), CHIPS[0], [], self.ctx
        )
        assert step is not None
        assert step == speed_steps_for(CHIPS[0])[0]
        assert not step.is_nominal
        assert step.time_scale > 1.0
        assert step.energy_scale < 1.0

    def test_runs_flat_out_when_nothing_meets(self):
        step = self.policy.speed_for(
            0.0, job(0, deadline=1.0), CHIPS[0], [], self.ctx
        )
        assert step is None

    def test_best_effort_jobs_never_scale(self):
        assert (
            self.policy.speed_for(0.0, job(0), CHIPS[0], [], self.ctx)
            is None
        )


class TestTechAware:
    """Deadline work to advanced nodes, background to efficiency mixes."""

    def setup_method(self):
        from repro.tech import TechSpec

        self.policy = create_scheduler("tech_aware")
        self.ctx = StubContext()
        self.hetero = [
            ChipSpec(chip_id=0),  # 65 nm out-of-order (paper default)
            ChipSpec(chip_id=1, num_workers=64, tech=TechSpec(node="45nm")),
            ChipSpec(
                chip_id=2, tech=TechSpec(node="32nm", cores="big_little")
            ),
            ChipSpec(
                chip_id=3, num_workers=64, tech=TechSpec(node="22nm", cores="io")
            ),
        ]

    def test_deadline_jobs_land_on_the_smallest_node(self):
        _, chip = self.policy.select(
            0.0, [job(0, deadline=100.0)], self.hetero, self.ctx
        )
        assert chip.chip_id == 3  # the 22 nm part

    def test_best_effort_soaks_the_efficiency_mixes(self):
        _, chip = self.policy.select(0.0, [job(0)], self.hetero, self.ctx)
        assert chip.chip_id == 2  # big.LITTLE 32 nm before the 22 nm io

    def test_chip_class_properties(self):
        assert [c.node_nm for c in self.hetero] == [65, 45, 32, 22]
        assert [c.core_class for c in self.hetero] == [
            "ooo", "ooo", "big_little", "io",
        ]
        assert [c.is_efficiency_class for c in self.hetero] == [
            False, False, True, True,
        ]


# ---------------------------------------------------------------------- #
# the one-pass deadline policies against the min / max bodies
# ---------------------------------------------------------------------- #


class LoggingContext(StubContext):
    """A StubContext that logs each estimate and transfer it answers:
    ``study_stats.memo_hits`` counts the engine's estimates, so the
    one-pass bodies must ask the same questions in the same order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def estimate(self, job, chip):
        self.calls.append(("estimate", job.job_id, chip.chip_id))
        return super().estimate(job, chip)

    def transfer_s(self, job, chip):
        self.calls.append(("transfer_s", job.job_id, chip.chip_id))
        return super().transfer_s(job, chip)


#: Few distinct values, so deadlines, arrivals, ids, completions and
#: finish times tie often and the first extreme in sequence order
#: decides.  Equal job ids draw equal (but distinct) job objects.
JOB_IDS = st.integers(min_value=0, max_value=3)
ARRIVALS = st.sampled_from([0.0, 1.0, 2.0])
DEADLINES = st.one_of(st.none(), st.sampled_from([30.0, 40.0, 60.0]))
COMPLETIONS = st.sampled_from([20.0, 28.0, 50.0])
SERVICES = st.sampled_from([5.0, 20.0, 25.0])


@st.composite
def drawn_jobs(draw):
    return ClusterJob(
        job_id=draw(JOB_IDS), app="histogram", arrival_s=draw(ARRIVALS),
        deadline_s=draw(DEADLINES),
    )


@st.composite
def running_sets(draw):
    """Running views on chips that may repeat, some with their
    ``preemptable=False`` twin next to them, some only as the twin."""
    views = []
    for token in range(draw(st.integers(min_value=0, max_value=5))):
        view = RunningJob(
            job=draw(drawn_jobs()),
            chip=CHIPS[draw(st.integers(min_value=0, max_value=2))],
            dispatched_s=0.0,
            transfer_end_s=0.5,
            completion_s=draw(COMPLETIONS),
            preemptable=draw(st.booleans()),
            token=token,
        )
        views.append(view)
        if view.preemptable and draw(st.booleans()):
            views.append(replace(view, preemptable=False))
    return views


@st.composite
def contexts(draw):
    """Keyword arguments of two identical logging contexts."""
    pairs = [(j, c.chip_id) for j in range(4) for c in CHIPS]
    return {
        "estimates": {
            pair: (draw(SERVICES), 1000.0) for pair in pairs
        },
        "resident": draw(st.sets(st.sampled_from(pairs), max_size=6)),
        "transfer": draw(st.sampled_from([0.0, 0.5])),
    }


@settings(max_examples=300, deadline=None)
@given(
    now=st.sampled_from([0.0, 1.0, 3.0]),
    queue=st.lists(drawn_jobs(), max_size=6),
    running=running_sets(),
    ctx=contexts(),
)
def test_one_pass_select_preemption_picks_the_oracles_victim(
    now, queue, running, ctx
):
    policy = create_scheduler("edf_preempt")
    ours, theirs = LoggingContext(**ctx), LoggingContext(**ctx)
    victim = policy.select_preemption(now, queue, running, ours)
    expected = oracle_select_preemption(policy, now, queue, running, theirs)
    assert victim is expected
    assert ours.calls == theirs.calls


@settings(max_examples=200, deadline=None)
@given(
    queue=st.lists(drawn_jobs(), min_size=1, max_size=6),
    free=st.lists(st.sampled_from(CHIPS), min_size=1, max_size=4),
    ctx=contexts(),
)
def test_one_pass_edf_picks_the_oracles_job_and_chip(queue, free, ctx):
    policy = create_scheduler("edf")
    assert policy.pick_job(0.0, queue, free, None) is oracle_pick_job(
        policy, 0.0, queue, free, None
    )
    ours, theirs = LoggingContext(**ctx), LoggingContext(**ctx)
    for job_ in queue:
        chip = policy.pick_chip(0.0, job_, free, ours)
        assert chip is oracle_pick_chip(policy, 0.0, job_, free, theirs)
    assert ours.calls == theirs.calls
