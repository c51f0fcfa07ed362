"""Reference map scheduler: the per-task heap event loop.

``SystemSimulator._schedule_map`` dispatches each map round with the
same ``(time, worker)`` heap loop; this copy keeps the loop as it was
written first -- the records' tasks built per call, duration rows found
by record identity, failure times read from the fault engine's array --
as the oracle ``tests/sim/test_map_dispatch.py`` and the 256-core smoke
in ``benchmarks/test_large_die_smoke.py`` compare the simulator
against, bit for bit: schedules, the phase end, stealing counters,
executed counts and fault-recovery bookkeeping.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.spec import FaultInjectionError
from repro.mapreduce.scheduler import DefaultStealingPolicy, TaskQueueSet
from repro.mapreduce.tasks import Phase, Task
from repro.mapreduce.trace import TaskRecord
from repro.sim.system import SystemSimulator, _Recovery, _ScheduledTask


def schedule_map(
    simulator,
    records: Sequence[TaskRecord],
    start: float,
    durations: np.ndarray,
) -> Tuple[List[_ScheduledTask], float, TaskQueueSet, Optional[_Recovery]]:
    """Event-driven map scheduling with stealing on *simulator*'s
    platform, stealing policy and ``faults.fail_time``.

    ``durations[i, w]`` is the runtime of ``records[i]`` on worker ``w``.
    Returns ``(schedule, end, queues, recovery)``; ``recovery`` is
    ``None`` when no fault engine is armed.
    """
    num_workers = simulator.platform.num_cores
    tasks = [
        Task(
            task_id=record.task_id,
            phase=Phase.MAP,
            payload=record,
            home_worker=record.home_worker,
        )
        for record in records
    ]
    row_of = {id(record): index for index, record in enumerate(records)}
    policy = simulator.policy or DefaultStealingPolicy()
    queues = TaskQueueSet(num_workers, policy)
    queues.load(tasks)
    faults = simulator.faults
    fail_time = faults.fail_time if faults is not None else None
    recovery = _Recovery() if faults is not None else None
    heap = [(start, w) for w in range(num_workers)]
    heapq.heapify(heap)
    schedule = []
    end = start
    while heap and queues.remaining > 0:
        now, worker = heapq.heappop(heap)
        if fail_time is not None and fail_time[worker] <= now:
            # Dead core: drops out of the event loop for good.
            continue
        task = queues.next_task(worker)
        if task is None:
            # Capped out or nothing to steal: this core is done.
            continue
        record: TaskRecord = task.payload
        duration = float(durations[row_of[id(record)], worker])
        if (
            fail_time is not None
            and now + duration > fail_time[worker]
        ):
            # Killed mid-execution (now < fail strictly, see above).
            fail = float(fail_time[worker])
            recovery.lost.append(
                (worker, now, fail - now, record.task_id)
            )
            recovery.reexecutions += 1
            queues.requeue(worker, task)
            end = max(end, fail)
            continue
        schedule.append(_ScheduledTask(record, worker, now, duration))
        end = max(end, now + duration)
        heapq.heappush(heap, (now + duration, worker))
    if queues.remaining > 0:
        # Every worker is capped (possible only with a user-supplied
        # fmax above all cores) or the survivors exited before a killed
        # task was requeued: run leftovers on the fastest core.
        if faults is None:
            fastest = int(np.argmax(simulator._worker_freqs))
        else:
            alive = np.isinf(fail_time)
            if not alive.any():
                raise FaultInjectionError(
                    "all workers fail before the map phase drains"
                )
            masked = np.where(alive, simulator._worker_freqs, -np.inf)
            fastest = int(np.argmax(masked))
        now = end
        for worker, task in queues.force_drain(fastest):
            record = task.payload
            duration = float(durations[row_of[id(record)], worker])
            schedule.append(_ScheduledTask(record, worker, now, duration))
            now += duration
        end = now
    return schedule, end, queues, recovery


def assert_identical(oracle, dispatched) -> None:
    """Assert two ``_schedule_map`` results agree bit for bit: the same
    records on the same workers at the same start times and durations,
    in the same order (energy folds floats in schedule order), the same
    phase end, stealing counters and per-worker executed counts, and the
    same killed executions in the same order.  ``None`` on both sides
    stands for a run that raised."""
    if oracle is None:
        assert dispatched is None
        return
    schedule_a, end_a, queues_a, recovery_a = oracle
    schedule_b, end_b, queues_b, recovery_b = dispatched
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


def check_every_round(monkeypatch) -> Dict[str, int]:
    """Replay every later ``SystemSimulator._schedule_map`` call through
    :func:`schedule_map` on the same inputs and :func:`assert_identical`
    the two.

    Returns running totals over the checked calls: ``calls``, ``steals``
    and ``reexecutions`` (killed executions), so a test can require its
    study to have exercised them."""
    dispatch = SystemSimulator._schedule_map
    totals = {"calls": 0, "steals": 0, "reexecutions": 0}

    def checked(simulator, start, durations, plan):
        result = dispatch(simulator, start, durations, plan)
        assert_identical(
            schedule_map(simulator, plan.records, start, durations), result
        )
        totals["calls"] += 1
        totals["steals"] += result[2].steals
        totals["reexecutions"] += result[3].reexecutions
        return result

    monkeypatch.setattr(SystemSimulator, "_schedule_map", checked)
    return totals
