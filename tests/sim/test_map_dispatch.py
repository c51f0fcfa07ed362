"""Map dispatch against the reference heap loop.

``SystemSimulator._schedule_map`` runs each map round as one
``(time, worker)`` heap loop over the phase's queue set;
``tests/sim/map_oracle.py`` keeps the loop as first written.  Both must
produce *identical* schedules -- same records, workers, start times, and
durations, in the same order -- because downstream energy accounting
folds floats in schedule order, and identical fault recovery: the same
killed executions, in the same order.  The cases below draw queue
shapes, policies and failure instants; the last one replays every map
round of a faulted, power-capped 64-core study.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import create_app
from repro.core.experiment import run_app_study
from repro.core.geometry import DieGeometry
from repro.core.platforms import build_nvfi_mesh
from repro.faults import preset_plan
from repro.faults.spec import FaultInjectionError
from repro.mapreduce.scheduler import CappedStealingPolicy
from repro.mapreduce.tasks import Phase, TaskCost
from repro.mapreduce.trace import TaskRecord
from repro.power.frontier import chip_peak_power_w
from repro.sim.system import SystemSimulator, simulate

from tests.sim import map_oracle


def _records(rng, num_tasks, num_workers, skew=1.0):
    records = []
    for task_id in range(num_tasks):
        home = int(rng.integers(num_workers))
        if skew != 1.0 and home == 0:
            home = int(rng.integers(num_workers))  # thin out worker 0
        records.append(
            TaskRecord(
                task_id=task_id,
                phase=Phase.MAP,
                cost=TaskCost(
                    instructions=float(rng.integers(1_000, 50_000)),
                    l2_accesses=float(rng.integers(0, 500)),
                    memory_accesses=float(rng.integers(0, 50)),
                ),
                home_worker=home,
            )
        )
    return records


class _StubFaults:
    """The one fault-engine attribute map dispatch reads."""

    def __init__(self, fail_time):
        self.fail_time = np.asarray(fail_time, dtype=float)


def _outcome(schedule_fn):
    """``(result, None)``, or ``(None, message)`` when no worker survives."""
    try:
        return schedule_fn(), None
    except FaultInjectionError as exc:
        return None, str(exc)


def _run_both(simulator, records, durations, start=3.25, fail_time=None):
    simulator.faults = None if fail_time is None else _StubFaults(fail_time)
    try:
        oracle = _outcome(
            lambda: map_oracle.schedule_map(simulator, records, start, durations)
        )
        dispatched = _outcome(
            lambda: simulator._schedule_map(
                start, durations, simulator._map_plan(records)
            )
        )
    finally:
        simulator.faults = None
    assert oracle[1] == dispatched[1]  # same FaultInjectionError text, or none
    return oracle[0], dispatched[0]


@pytest.fixture(scope="module")
def simulator():
    platform = build_nvfi_mesh(DieGeometry.for_cores(16))
    return SystemSimulator(platform, locality=0.6)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("num_tasks", [5, 48, 200])
def test_batched_matches_event_loop(simulator, seed, num_tasks):
    rng = np.random.default_rng(seed)
    num_workers = simulator.platform.num_cores
    records = _records(rng, num_tasks, num_workers)
    durations = rng.uniform(1e-4, 5e-3, (num_tasks, num_workers))
    map_oracle.assert_identical(*_run_both(simulator, records, durations))


def test_batched_matches_with_stealing(simulator):
    # A strongly skewed allocation: much of the phase runs stolen tasks.
    rng = np.random.default_rng(42)
    num_workers = simulator.platform.num_cores
    records = [
        TaskRecord(
            task_id=r.task_id, phase=r.phase, cost=r.cost,
            home_worker=3 if r.task_id < 60 else r.home_worker,
        )
        for r in _records(rng, 120, num_workers)
    ]  # half the work piled on worker 3
    durations = rng.uniform(1e-4, 5e-3, (120, num_workers))
    oracle, dispatched = _run_both(simulator, records, durations)
    assert oracle[2].steals > 0  # the scenario exercises stealing
    map_oracle.assert_identical(oracle, dispatched)


def test_batched_matches_with_capped_policy(simulator):
    rng = np.random.default_rng(3)
    num_workers = simulator.platform.num_cores
    records = _records(rng, 150, num_workers)
    durations = rng.uniform(1e-4, 5e-3, (150, num_workers))
    freqs = rng.choice([1.5e9, 2.0e9, 2.5e9], size=num_workers)
    simulator.policy = CappedStealingPolicy(list(freqs), fmax_hz=2.5e9)
    try:
        oracle, dispatched = _run_both(simulator, records, durations)
    finally:
        simulator.policy = None
    map_oracle.assert_identical(oracle, dispatched)


def test_batched_handles_workers_without_tasks(simulator):
    # Every other worker starts with an empty queue: all their work
    # is stolen from worker 0.
    num_workers = simulator.platform.num_cores
    records = [
        TaskRecord(
            task_id=i, phase=Phase.MAP,
            cost=TaskCost(instructions=1000.0, l2_accesses=0.0,
                          memory_accesses=0.0),
            home_worker=0,
        )
        for i in range(10)
    ]
    rng = np.random.default_rng(0)
    durations = rng.uniform(1e-4, 5e-3, (10, num_workers))
    map_oracle.assert_identical(*_run_both(simulator, records, durations))


_SIMULATORS = {}


def _simulator_for(num_cores):
    if num_cores not in _SIMULATORS:
        platform = build_nvfi_mesh(DieGeometry.for_cores(num_cores))
        _SIMULATORS[num_cores] = SystemSimulator(platform, locality=0.6)
    return _SIMULATORS[num_cores]


#: Per-worker failure-time cases the property draws from.
FAIL_CASES = ("none", "before_start", "at_start", "mid_phase", "at_task_end",
              "after_drain")


def _fail_time(case, worker, start, durations, homes, rng):
    """One worker's failure instant for a drawn *case*.

    ``at_task_end`` lands exactly on the end of one of the worker's own
    tasks (the clock the worker reaches running its own queue in order),
    where the task must survive and only the next one dies."""
    if case == "none":
        return np.inf
    if case == "before_start":
        return start - float(rng.uniform(1e-4, 1.0))
    if case == "at_start":
        return start
    if case == "after_drain":
        return start + float(durations.sum()) + 1.0
    own = durations[homes == worker, worker]
    if case == "at_task_end" and len(own):
        chain = np.add.accumulate(np.concatenate(([start], own)))
        return float(chain[rng.integers(1, len(chain))])
    horizon = float(durations.mean()) * len(durations) / durations.shape[1]
    return start + float(rng.uniform(0.0, 1.5 * horizon))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_batched_identical_to_event_loop(data):
    """Schedule identity across random queue shapes, policies, sizes and
    core failures.

    Draws worker counts, skewed home allocations (including every task
    piled on one hot worker), tie-heavy quantized duration grids,
    zero-length tasks, capped vs greedy stealing policies, and per-worker
    failure instants (none,
    before or exactly at the phase start, mid-phase, exactly at a task
    end, after the drain -- including no survivor at all); the
    simulator's dispatch must match the reference loop bit for bit on
    every one of them.
    """
    num_cores = data.draw(st.sampled_from([4, 16]), label="num_cores")
    simulator = _simulator_for(num_cores)
    seed = data.draw(st.integers(0, 2**16 - 1), label="rng_seed")
    num_tasks = data.draw(st.integers(1, 150), label="num_tasks")
    rng = np.random.default_rng(seed)
    hot_worker = data.draw(st.integers(0, num_cores - 1), label="hot_worker")
    hot_fraction = data.draw(
        st.sampled_from([0.0, 0.5, 0.95, 1.0]), label="hot_fraction"
    )
    homes = np.where(
        rng.random(num_tasks) < hot_fraction,
        hot_worker,
        rng.integers(0, num_cores, num_tasks),
    )
    records = [
        TaskRecord(
            task_id=i, phase=Phase.MAP,
            cost=TaskCost(instructions=1000.0, l2_accesses=0.0,
                          memory_accesses=0.0),
            home_worker=int(homes[i]),
        )
        for i in range(num_tasks)
    ]
    durations = rng.uniform(1e-4, 5e-3, (num_tasks, num_cores))
    if data.draw(st.booleans(), label="tie_heavy"):
        # Snap to a coarse grid: many equal durations force exact float
        # ties between pops and simultaneous drain times.
        durations = np.round(durations, 3) + 1e-4
    if data.draw(st.booleans(), label="zero_durations"):
        # Zero-length tasks start exactly where the previous one ended:
        # at a failure instant only the "dead at pop" test stops them.
        durations[rng.random(durations.shape) < 0.25] = 0.0
    if data.draw(st.booleans(), label="capped_policy"):
        freqs = rng.choice([1.5e9, 2.0e9, 2.5e9], size=num_cores)
        simulator.policy = CappedStealingPolicy(list(freqs), fmax_hz=2.5e9)
    else:
        simulator.policy = None
    start = 3.25
    fail_time = None
    if data.draw(st.booleans(), label="faults"):
        cases = data.draw(
            st.lists(st.sampled_from(FAIL_CASES), min_size=num_cores,
                     max_size=num_cores),
            label="fail_cases",
        )
        fail_time = [
            _fail_time(case, worker, start, durations, homes, rng)
            for worker, case in enumerate(cases)
        ]
    try:
        map_oracle.assert_identical(
            *_run_both(simulator, records, durations, start, fail_time)
        )
    finally:
        simulator.policy = None


def test_batched_matches_with_core_failures(simulator):
    """Kills mid-run, a core dead from the start and the all-dead error."""
    rng = np.random.default_rng(11)
    num_workers = simulator.platform.num_cores
    records = _records(rng, 160, num_workers)
    durations = rng.uniform(1e-4, 5e-3, (160, num_workers))
    start = 3.25
    fail_time = np.full(num_workers, np.inf)
    fail_time[[2, 5, 9]] = start + np.array([0.004, 0.011, 0.02])
    fail_time[12] = start
    oracle, dispatched = _run_both(simulator, records, durations, start, fail_time)
    assert oracle[3].reexecutions > 0  # the scenario kills executions
    map_oracle.assert_identical(oracle, dispatched)
    simulator.faults = _StubFaults(np.full(num_workers, start + 0.01))
    try:
        with pytest.raises(FaultInjectionError, match="all workers fail"):
            simulator._schedule_map(
                start, durations, simulator._map_plan(records)
            )
    finally:
        simulator.faults = None


def test_every_round_of_a_faulted_capped_study(monkeypatch):
    """Every map round of a 64-core pca study under the ``mixed`` fault
    plan and a 0.6 x peak chip cap -- all four systems, every relaxation
    round -- matches the reference loop, killed executions included."""
    app = create_app("pca", scale=0.05, seed=7)
    horizon = simulate(
        build_nvfi_mesh(DieGeometry.for_cores(64)),
        app.run(num_workers=64),
        locality=app.profile.l2_locality,
    ).total_time_s
    totals = map_oracle.check_every_round(monkeypatch)
    run_app_study(
        "pca", scale=0.05, seed=7, num_workers=64, use_cache=False,
        fault_plan=preset_plan("mixed", horizon, 64),
        power_cap=0.6 * chip_peak_power_w(64),
    )
    assert totals["calls"] > 0
    assert totals["steals"] > 0 and totals["reexecutions"] > 0
