"""Oracle tests for the cluster's warm path, and its end-of-run audit.

* **Estimates.**  ``CostModel.estimate`` prices each (job class, chip
  class) pair once; every estimate must equal the old
  ``spec_for -> study -> result`` path, and ``study_stats`` must equal
  those of a model that still takes that path on every call.
* **Policy views.**  The engine builds each execution's ``RunningJob``
  once, at dispatch; the sequences a policy receives must equal the old
  per-round construction, same-instant dispatches included.
* **Free chips** stay sorted by chip id without ``insort(key=...)``,
  which Python 3.9 lacks.
* **Audit.**  A run whose policy leaves work undone raises instead of
  recording it as completed.
"""

import bisect
import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ArrivalTrace,
    ChipSpec,
    ClusterJob,
    ClusterService,
    CostModel,
    Fleet,
    JobEstimate,
    fleet_for,
    scheduler_names,
)
from repro.cluster.arrivals import make_source
from repro.cluster.engine import ClusterEngine
from repro.cluster.policies import ClusterScheduler, RunningJob, create_scheduler
from repro.core.experiment import (
    NVFI_MESH,
    VFI1_MESH,
    VFI2_MESH,
    clear_study_cache,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.orchestrator import CACHE_SCHEMA_VERSION
from repro.tech.spec import TechSpec
from tests.cluster.test_properties import FakeCostModel, traces

POLICIES = tuple(scheduler_names())

SLOWDOWN = FaultPlan(
    name="straggler",
    events=(
        FaultSpec(
            kind=FaultKind.CORE_SLOWDOWN, time_s=0.0, target=(3,),
            magnitude=2.0,
        ),
    ),
)

#: Chip classes a mixed fleet draws from: every field of ``class_key``
#: varies across the pool (config, die size, fault plan, tech, cap).
CHIP_CLASSES = (
    {},
    {"config": NVFI_MESH},
    {"config": VFI1_MESH},
    {"config": VFI2_MESH, "fault_plan": SLOWDOWN},
    {"num_workers": 64, "tech": TechSpec(node="45nm")},
    {"tech": TechSpec(node="32nm", cores="big_little"), "power_cap": 20.0},
    {"power_cap": 35.0},
)


class FakeStudy:
    """A study whose per-config results are hashed from its spec."""

    def __init__(self, spec):
        self.key = spec.cache_key()

    def result(self, config):
        digest = hashlib.sha256(f"{self.key}|{config}".encode()).digest()
        return SimpleNamespace(
            total_time_s=1.0 + digest[0] / 16.0,
            total_energy_j=50.0 + digest[1] * 2.0,
        )


class FakeStudyCache:
    """A StudyCache stand-in that holds every study (no simulation)."""

    schema_version = CACHE_SCHEMA_VERSION
    root = "fake"

    def __init__(self):
        self.gets = 0

    def get(self, spec):
        self.gets += 1
        return FakeStudy(spec)


@pytest.fixture(scope="module", autouse=True)
def clean_study_memo():
    """Cost models resolve through ``run_campaign``, which registers
    every study in the process memo: drop the fakes after this module."""
    yield
    clear_study_cache()


def old_estimate(model, job, chip):
    """The pre-table estimate: a fresh StudySpec on every call."""
    result = model.study(job.spec_for(chip)).result(chip.config)
    return JobEstimate(
        service_s=float(result.total_time_s),
        energy_j=float(result.total_energy_j),
    )


class OracleCostModel(CostModel):
    def estimate(self, job, chip):
        return old_estimate(self, job, chip)


class RecordingCostModel(CostModel):
    def __init__(self, cache):
        super().__init__(cache)
        self.calls = []

    def estimate(self, job, chip):
        estimate = super().estimate(job, chip)
        self.calls.append((job, chip, estimate))
        return estimate


@st.composite
def mixed_fleets(draw):
    classes = draw(
        st.lists(st.sampled_from(CHIP_CLASSES), min_size=1, max_size=4)
    )
    return Fleet(
        chips=tuple(
            ChipSpec(chip_id=chip_id, **fields)
            for chip_id, fields in enumerate(classes)
        )
    )


MIXED_RUNS = st.fixed_dictionaries(
    {
        "trace": traces(),
        "fleet": mixed_fleets(),
        "policy": st.sampled_from(POLICIES),
        "depth": st.integers(min_value=1, max_value=4),
        "closed": st.booleans(),
    }
)


def serve(config, cost_model=None, policy=None, fleet=None):
    service = ClusterService(
        fleet if fleet is not None else config["fleet"],
        policy=policy if policy is not None else config["policy"],
        max_queue_depth=config["depth"],
        cost_model=cost_model,
    )
    options = None
    source = "open"
    if config["closed"]:
        source = "closed"
        options = {"retry_limit": 2, "backoff_base_s": 1.0, "seed": 5}
    return service.run(config["trace"], source=source, source_options=options)


# ---------------------------------------------------------------------- #
# estimates
# ---------------------------------------------------------------------- #


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=MIXED_RUNS)
def test_estimates_equal_the_spec_study_result_path(config):
    model = RecordingCostModel(FakeStudyCache())
    result = serve(config, cost_model=model)
    expected = serve(config, cost_model=OracleCostModel(FakeStudyCache()))
    assert model.calls
    check = CostModel(FakeStudyCache())
    for job, chip, estimate in model.calls:
        assert estimate == old_estimate(check, job, chip)
    assert result.study_stats == expected.study_stats
    assert result.payload_json() == expected.payload_json()


def test_repeat_estimates_build_no_study_spec(monkeypatch):
    """One StudySpec per (job class, chip class), shared by the run and
    by ``service.cost_model.estimate`` between runs."""
    fleet = Fleet(
        chips=(ChipSpec(chip_id=0), ChipSpec(chip_id=1), ChipSpec(chip_id=2))
    )
    jobs = tuple(
        ClusterJob(job_id=i, app="histogram", arrival_s=float(i), seed=9,
                   deadline_s=i + 40.0)
        for i in range(6)
    )
    trace = ArrivalTrace(name="one-class", seed=1, jobs=jobs)
    model = CostModel(FakeStudyCache())
    service = ClusterService(fleet, policy="edf", cost_model=model)
    first = service.cost_model.estimate(jobs[0], fleet.chips[0])

    def refuse(self, chip):
        raise AssertionError("a repeat estimate built a StudySpec")

    monkeypatch.setattr(ClusterJob, "spec_for", refuse)
    result = service.run(trace)
    assert service.cost_model.estimate(jobs[5], fleet.chips[2]) == first
    assert model.cache.gets == 1
    # Each call after the first counts as the memo hit it used to be.
    calls = result.study_stats["memo_hits"]
    assert calls >= len(jobs)
    assert model.stats() == {
        "computed": 0, "cache_hits": 1, "memo_hits": calls + 1,
        "unique_specs": 1,
    }


# ---------------------------------------------------------------------- #
# policy views
# ---------------------------------------------------------------------- #


def old_views(engine, now):
    """The per-round construction the engine used to run."""
    return [
        RunningJob(
            job=execution.job,
            chip=execution.chip,
            dispatched_s=execution.dispatched_s,
            transfer_end_s=execution.transfer_end_s,
            completion_s=execution.completion_s,
            preemptable=execution.dispatched_s < now,
            token=execution.token,
        )
        for _, execution in sorted(engine.busy.items())
    ]


class ViewChecker:
    """Policy proxy (the engine reads only these four members) that
    checks every ``running`` sequence against :func:`old_views`."""

    def __init__(self, policy):
        self.name = policy.name
        self.select = policy.select
        self.speed_for = policy.speed_for
        self._policy = policy
        self.rounds = 0
        self.same_instant = 0
        self._views = {}

    def select_preemption(self, now, queue, running, ctx):
        assert list(running) == old_views(ctx, now)
        self.rounds += 1
        for view in running:
            if not view.preemptable:
                self.same_instant += 1
            elif view.token in self._views:
                assert view is self._views[view.token]  # built once
            else:
                self._views[view.token] = view
        return self._policy.select_preemption(now, queue, running, ctx)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=MIXED_RUNS)
def test_policy_views_equal_the_per_round_construction(config):
    checker = ViewChecker(create_scheduler(config["policy"]))
    result = serve(config, cost_model=FakeCostModel(), policy=checker)
    plain = serve(config, cost_model=FakeCostModel())
    assert result.payload_json() == plain.payload_json()


def test_same_instant_dispatch_is_not_preemptable():
    # Three deadline jobs at t=0 on two chips: the round after the two
    # dispatches land sees both executions at the instant they started.
    jobs = tuple(
        ClusterJob(job_id=i, app="histogram", arrival_s=0.0, seed=9,
                   deadline_s=5.0 + i, input_mb=0.0)
        for i in range(3)
    )
    config = {
        "trace": ArrivalTrace(name="instant", seed=1, jobs=jobs),
        "depth": 4, "closed": False,
    }
    checker = ViewChecker(create_scheduler("edf_preempt"))
    serve(config, cost_model=FakeCostModel(), policy=checker,
          fleet=fleet_for(2))
    assert checker.rounds >= 1
    assert checker.same_instant >= 2


# ---------------------------------------------------------------------- #
# free chips without insort(key=...)
# ---------------------------------------------------------------------- #


class ScriptedCostModel(CostModel):
    SERVICE_S = {"wordcount": 10.0, "histogram": 1.0}

    def __init__(self):
        super().__init__(None)

    def estimate(self, job, chip):
        return JobEstimate(service_s=self.SERVICE_S[job.app], energy_j=1.0)


class FreeChipRecorder(ClusterScheduler):
    name = "fifo-recording"

    def __init__(self):
        self.orders = []

    def select(self, now, queue, free_chips, ctx):
        self.orders.append([chip.chip_id for chip in free_chips])
        return super().select(now, queue, free_chips, ctx)


def test_free_chips_stay_sorted_without_insort_key(monkeypatch):
    def insort_without_key(a, x, lo=0, hi=None):
        # Python 3.9's signature: no ``key`` argument.
        bisect.insort(a, x, lo, len(a) if hi is None else hi)

    monkeypatch.setattr(
        "repro.cluster.engine.insort", insort_without_key, raising=False
    )
    # chip 1 (short job) frees before chip 0 (long job), so chip 0 must
    # be inserted in front of it.
    jobs = (
        ClusterJob(job_id=0, app="wordcount", arrival_s=0.0, input_mb=0.0),
        ClusterJob(job_id=1, app="histogram", arrival_s=0.0, input_mb=0.0),
        ClusterJob(job_id=2, app="histogram", arrival_s=20.0, input_mb=0.0),
        ClusterJob(job_id=3, app="histogram", arrival_s=20.0, input_mb=0.0),
    )
    policy = FreeChipRecorder()
    engine = ClusterEngine(
        fleet_for(2), policy, ScriptedCostModel(), max_queue_depth=4
    )
    records = engine.run(
        make_source(ArrivalTrace(name="two", seed=1, jobs=jobs), "open")
    )
    assert [r.chip_id for r in records] == [0, 1, 0, 1]
    assert [0, 1] in policy.orders[1:]  # both chips back, in id order
    for order in policy.orders:
        assert order == sorted(order)
    assert [chip.chip_id for chip in engine.free_chips] == [0, 1]


# ---------------------------------------------------------------------- #
# end-of-run audit
# ---------------------------------------------------------------------- #


class NeverDispatch(ClusterScheduler):
    name = "never"

    def select(self, now, queue, free_chips, ctx):
        return None


def test_a_policy_that_never_dispatches_fails_the_run(smoke_trace):
    jobs = smoke_trace.jobs[:5]
    trace = ArrivalTrace(name="smoke5", seed=7, jobs=jobs)
    service = ClusterService(
        fleet_for(2), policy=NeverDispatch(), max_queue_depth=8,
        cost_model=FakeCostModel(),
    )
    with pytest.raises(RuntimeError) as info:
        service.run(trace)
    message = str(info.value)
    assert "\n" not in message
    assert "'never'" in message
    assert jobs[0].label in message
