"""Property-based invariants of the task-stealing queues.

Whatever the policy and drain order, tasks are conserved: every loaded
task is executed exactly once, across own-queue pops, steals, and the
force-drain fallback.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mapreduce.scheduler import (
    CappedStealingPolicy,
    DefaultStealingPolicy,
    StealingPolicy,
    TaskQueueSet,
)
from repro.mapreduce.tasks import Phase, Task

from tests.mapreduce import victim_oracle


def make_tasks(home_workers):
    return [
        Task(task_id=i, phase=Phase.MAP, payload=None, home_worker=home)
        for i, home in enumerate(home_workers)
    ]


def executed_total(queues):
    return sum(
        queues.executed_count(w) for w in range(queues.num_workers)
    )


@st.composite
def workload(draw):
    num_workers = draw(st.integers(min_value=1, max_value=8))
    homes = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_workers - 1),
            min_size=0,
            max_size=60,
        )
    )
    return num_workers, homes


@st.composite
def capped_workload(draw):
    num_workers, homes = draw(workload())
    # Frequencies below fmax produce real caps; include ties with fmax.
    freqs = draw(
        st.lists(
            st.sampled_from([1.0e9, 1.5e9, 2.0e9, 2.5e9]),
            min_size=num_workers,
            max_size=num_workers,
        )
    )
    fmax = draw(st.sampled_from([None, 2.5e9, 3.0e9]))
    return num_workers, homes, freqs, fmax


@settings(max_examples=60, deadline=None)
@given(workload())
def test_default_policy_conserves_tasks(case):
    num_workers, homes = case
    queues = TaskQueueSet(num_workers, DefaultStealingPolicy())
    tasks = make_tasks(homes)
    queues.load(tasks)
    order = queues.drain_serial()
    assert len(order) == len(tasks)
    assert queues.remaining == 0
    assert executed_total(queues) == len(tasks)
    assert sorted(task.task_id for _, task in order) == sorted(
        task.task_id for task in tasks
    )


@settings(max_examples=60, deadline=None)
@given(capped_workload())
def test_capped_policy_conserves_tasks(case):
    num_workers, homes, freqs, fmax = case
    policy = CappedStealingPolicy(freqs, fmax_hz=fmax)
    queues = TaskQueueSet(num_workers, policy)
    tasks = make_tasks(homes)
    queues.load(tasks)
    order = queues.drain_serial()
    assert len(order) == len(tasks)
    assert queues.remaining == 0
    assert executed_total(queues) == len(tasks)
    assert sorted(task.task_id for _, task in order) == sorted(
        task.task_id for task in tasks
    )


@settings(max_examples=60, deadline=None)
@given(workload(), st.data())
def test_requeue_conserves_tasks(case, data):
    """Fault re-execution: popping a task and requeueing it (as a core
    failure kills the execution) still drains every task exactly once --
    the re-execution charges its own pop, so executed counts exceed the
    task count by exactly the number of requeues."""
    num_workers, homes = case
    queues = TaskQueueSet(num_workers, DefaultStealingPolicy())
    tasks = make_tasks(homes)
    queues.load(tasks)

    requeues = 0
    seen = []
    while queues.remaining > 0:
        worker = data.draw(
            st.integers(0, num_workers - 1), label="scheduling worker"
        )
        task = queues.next_task(worker)
        if task is None:
            continue
        # Bound the kills so the drain always terminates within the
        # entropy hypothesis provides.
        kill = requeues < len(tasks) and data.draw(
            st.booleans(), label="kill this execution"
        )
        if kill:
            victim = data.draw(
                st.integers(0, num_workers - 1), label="requeue victim"
            )
            queues.requeue(victim, task)
            requeues += 1
            # The requeued task goes to the head of the victim's queue.
            assert queues.queue_length(victim) >= 1
        else:
            seen.append(task.task_id)

    assert sorted(seen) == sorted(task.task_id for task in tasks)
    assert executed_total(queues) == len(tasks) + requeues


@settings(max_examples=60, deadline=None)
@given(workload())
def test_requeue_preserves_head_position(case):
    """A requeued task is the very next own-queue pop for that worker."""
    num_workers, homes = case
    if not homes:
        return
    queues = TaskQueueSet(num_workers, DefaultStealingPolicy())
    tasks = make_tasks(homes)
    queues.load(tasks)
    home = tasks[0].home_worker
    first = queues.next_task(home)
    assert first is not None
    queues.requeue(home, first)
    assert queues.next_task(home) is first


@settings(max_examples=60, deadline=None)
@given(workload())
def test_force_drain_conserves_tasks(case):
    """Force-draining straight after load attributes everything to the
    chosen worker and leaves no task behind or duplicated."""
    num_workers, homes = case
    queues = TaskQueueSet(num_workers, DefaultStealingPolicy())
    tasks = make_tasks(homes)
    queues.load(tasks)
    order = queues.force_drain(0)
    assert len(order) == len(tasks)
    assert queues.remaining == 0
    assert queues.executed_count(0) == len(tasks)
    assert all(worker == 0 for worker, _ in order)
    assert sorted(task.task_id for _, task in order) == sorted(
        task.task_id for task in tasks
    )


QUEUE_OPERATIONS = (
    "load", "invalid_load", "next_task", "requeue",
    "force_drain", "drain_serial",
)


def queued_total(queues):
    return sum(queues.queue_length(w) for w in range(queues.num_workers))


@settings(max_examples=200, deadline=None)
@given(capped_workload(), st.booleans(), st.data())
def test_remaining_counts_every_queued_task(case, capped, data):
    """``remaining`` is a counter kept by every push and pop; after any
    sequence of queue operations -- a load rejected half-way included --
    it equals the summed queue lengths."""
    num_workers, homes, freqs, fmax = case
    policy = (
        CappedStealingPolicy(freqs, fmax_hz=fmax) if capped
        else DefaultStealingPolicy()
    )
    queues = TaskQueueSet(num_workers, policy)
    worker = st.integers(0, num_workers - 1)
    popped = []
    assert queues.remaining == queued_total(queues) == 0
    operations = data.draw(
        st.lists(st.sampled_from(QUEUE_OPERATIONS), max_size=40),
        label="operations",
    )
    for operation in operations:
        if operation == "load":
            queues.load(make_tasks(homes))
            popped.clear()
        elif operation == "invalid_load":
            with pytest.raises(ValueError):
                queues.load(make_tasks(homes + [num_workers]))
            popped.clear()
        elif operation == "next_task":
            task = queues.next_task(data.draw(worker))
            if task is not None:
                popped.append(task)
        elif operation == "requeue" and popped:
            queues.requeue(data.draw(worker), popped.pop())
        elif operation == "force_drain":
            queues.force_drain(data.draw(worker))
        elif operation == "drain_serial":
            queues.drain_serial()
        assert queues.remaining == queued_total(queues)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 4), max_size=10),
    st.integers(-3, 12),
    st.sampled_from(["default", "capped"]),
)
@example([2, 5, 5, 1], 0, "default")  # tie: the first longest wins
@example([5, 5, 3], 0, "default")  # tie that includes the thief
@example([1, 7, 7, 2], 1, "capped")  # the thief holds the longest queue
@example([0, 0, 0], 1, "default")  # every queue empty
@example([6], 0, "default")  # only the thief has work
@example([], 0, "default")  # no queues at all
@example([3, 4, 4], 3, "default")  # thief past the end
@example([3, 4, 4], -1, "capped")  # negative thief: no entry is its
def test_choose_victim_matches_the_loop(lengths, thief, kind):
    """``choose_victim`` picks what the per-queue loop picks -- the
    first longest non-empty queue that is not the thief's, else
    ``None`` -- for any thief index, in range or not, and leaves the
    caller's lengths untouched; ``CappedStealingPolicy`` inherits it."""
    policy = (
        CappedStealingPolicy([2.0e9] * max(len(lengths), 1))
        if kind == "capped" else StealingPolicy()
    )
    given_lengths = list(lengths)
    assert policy.choose_victim(thief, lengths) == victim_oracle.choose_victim(
        thief, lengths
    )
    assert lengths == given_lengths
