"""Reference map scheduler: the per-task heap event loop.

Before steal-epoch batching learnt fault boundaries, every fault-injected
map phase (and, with no dispatch indices, every clean one) ran through
this loop.  It is kept verbatim as the oracle
``tests/sim/test_map_dispatch.py`` compares
``SystemSimulator._schedule_map`` against, bit for bit: schedules, the
phase end, stealing counters and fault-recovery bookkeeping.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.spec import FaultInjectionError
from repro.mapreduce.scheduler import DefaultStealingPolicy, TaskQueueSet
from repro.mapreduce.tasks import Phase, Task
from repro.mapreduce.trace import TaskRecord
from repro.sim.system import _Recovery, _ScheduledTask


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
