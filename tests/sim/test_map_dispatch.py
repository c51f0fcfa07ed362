"""Epoch-batched map dispatch vs the per-task event loop.

``SystemSimulator._schedule_map`` commits each worker's own-queue run
in one vectorized batch per steal epoch and runs only steal decisions
and fault boundaries event by event; ``tests/sim/map_oracle.py`` keeps
the per-task heap loop it replaced.  Both must produce *identical*
schedules -- same records, workers, start times, and durations, in the
same order -- because downstream energy accounting folds floats in
schedule order, and identical fault recovery: the same killed
executions, in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import DieGeometry
from repro.core.platforms import build_nvfi_mesh
from repro.faults.spec import FaultInjectionError
from repro.mapreduce.scheduler import CappedStealingPolicy, TaskQueueSet
from repro.mapreduce.tasks import Phase, TaskCost, Task
from repro.mapreduce.trace import TaskRecord
from repro.sim.system import SystemSimulator

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
        batched = _outcome(
            lambda: simulator._schedule_map(
                start, durations, simulator._map_plan(records)
            )
        )
    finally:
        simulator.faults = None
    assert oracle[1] == batched[1]  # same FaultInjectionError text, or none
    return oracle[0], batched[0]


def _assert_identical(oracle, batched):
    if oracle is None:
        assert batched is None
        return
    schedule_a, end_a, queues_a, recovery_a = oracle
    schedule_b, end_b, queues_b, recovery_b = batched
    assert end_a == end_b
    assert len(schedule_a) == len(schedule_b)
    for item_a, item_b in zip(schedule_a, schedule_b):
        assert item_a.record is item_b.record
        assert item_a.worker == item_b.worker
        assert item_a.start_s == item_b.start_s  # bit-for-bit
        assert item_a.duration_s == item_b.duration_s
    assert queues_a.steals == queues_b.steals
    assert queues_a.steal_attempts == queues_b.steal_attempts
    assert queues_a.cap_rejections == queues_b.cap_rejections
    for worker in range(queues_a.num_workers):
        assert queues_a.executed_count(worker) == queues_b.executed_count(
            worker
        )
    if recovery_a is None:  # the oracle keeps no recovery on clean runs
        assert recovery_b.lost == [] and recovery_b.reexecutions == 0
    else:
        assert recovery_a.lost == recovery_b.lost  # in order, bit-for-bit
        assert recovery_a.reexecutions == recovery_b.reexecutions


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
    _assert_identical(*_run_both(simulator, records, durations))


def test_batched_matches_with_stealing(simulator):
    # A strongly skewed allocation forces the stealing tail to do real
    # work after the batched prologue.
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
    oracle, batched = _run_both(simulator, records, durations)
    assert oracle[2].steals > 0  # the scenario exercises stealing
    _assert_identical(oracle, batched)


def test_batched_matches_with_capped_policy(simulator):
    rng = np.random.default_rng(3)
    num_workers = simulator.platform.num_cores
    records = _records(rng, 150, num_workers)
    durations = rng.uniform(1e-4, 5e-3, (150, num_workers))
    freqs = rng.choice([1.5e9, 2.0e9, 2.5e9], size=num_workers)
    simulator.policy = CappedStealingPolicy(list(freqs), fmax_hz=2.5e9)
    try:
        oracle, batched = _run_both(simulator, records, durations)
    finally:
        simulator.policy = None
    _assert_identical(oracle, batched)


def test_batched_handles_workers_without_tasks(simulator):
    # Worker queues with zero home tasks collapse t* to the phase start:
    # the prologue commits nothing and the event loop does all the work.
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
    _assert_identical(*_run_both(simulator, records, durations))


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
    tasks (the float the dispatch chain computes), where the task must
    survive and only the next one dies."""
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
    epoch-batched dispatch must match the pure event loop bit for bit on
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
        # ties at epoch boundaries and simultaneous drain times.
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
        _assert_identical(
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
    oracle, batched = _run_both(simulator, records, durations, start, fail_time)
    assert oracle[3].reexecutions > 0  # the scenario kills executions
    _assert_identical(oracle, batched)
    simulator.faults = _StubFaults(np.full(num_workers, start + 0.01))
    try:
        with pytest.raises(FaultInjectionError, match="all workers fail"):
            simulator._schedule_map(
                start, durations, simulator._map_plan(records)
            )
    finally:
        simulator.faults = None


def test_commit_own_semantics():
    queues = TaskQueueSet(2)
    tasks = [
        Task(task_id=i, phase=Phase.MAP, payload=None, home_worker=i % 2)
        for i in range(6)
    ]
    queues.load(tasks)
    popped = queues.commit_own(0, 2)
    assert [t.task_id for t in popped] == [0, 2]
    assert queues.executed_count(0) == 2
    assert queues.queue_length(0) == 1
    assert queues.steals == 0 and queues.steal_attempts == 0
    with pytest.raises(ValueError):
        queues.commit_own(1, 4)
