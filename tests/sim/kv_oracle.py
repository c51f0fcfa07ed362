"""Reference barrier-phase pricing: the scalar per-record loop.

Before every barrier phase went through one vectorized kernel
(``SystemSimulator._kv_durations``), fault-injected reduce/merge phases
priced each task with ``_task_time`` plus this per-source pull loop, one
record and one (substitute) worker at a time.  The loop, the
substitution chain it fed and the per-record phase loop are kept
verbatim as oracles: ``tests/sim/test_kv_kernel.py`` asserts the kernel
and the simulator's barrier schedules equal theirs bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.spec import FaultInjectionError
from repro.mapreduce.trace import TaskRecord
from repro.noc.packets import kv_stream_bits
from repro.sim.system import _Recovery, _ScheduledTask

from tests.noc import table_oracles

#: (memory system, its refreshed bulk latency, reference matrices) of the
#: last lookup: the full matrices are rebuilt only after a refresh.
_reference = [None, None, None]


def bulk_matrices(memory) -> Tuple[np.ndarray, np.ndarray]:
    """Full bulk-class zero-payload latency and effective-capacity
    matrices under the network's current load, from the reference
    builders in ``tests/noc/table_oracles.py``.

    The simulator keeps neither matrix: it stores the loaded head and
    gathers capacity per priced pair.  The network load is the one its
    last refresh saw, so these are the matrices that refresh built."""
    if _reference[0] is not memory or _reference[1] is not memory.bulk_base_latency_s:
        _reference[:] = [
            memory,
            memory.bulk_base_latency_s,
            (
                table_oracles.zero_payload_latency(memory.dense_bulk),
                table_oracles.bottleneck_matrix(memory.dense_bulk),
            ),
        ]
    return _reference[2]


def kv_pull_time(simulator, record: TaskRecord, worker: int) -> float:
    """Time to stream the task's remote key-value inputs.

    Evaluated from the full bulk-class matrices (zero-payload head
    latency, raw serialization rate and effective path capacity), so
    each source costs a few table lookups instead of two path walks."""
    sources = simulator._kv_sources(record)
    if not sources:
        return 0.0
    memory = simulator.memory
    base, effective = bulk_matrices(memory)
    raw = memory.bulk_raw_bottleneck_bps
    dst = simulator._worker_nodes[worker]
    total = 0.0
    for src_worker, nbytes in sources:
        src = simulator._worker_nodes[src_worker]
        bits = kv_stream_bits(nbytes, simulator.params.kv_chunk_bytes)
        line_rate = raw[src, dst]
        head = base[src, dst] + (
            min(bits, simulator._kv_chunk_bits) / line_rate
            if np.isfinite(line_rate)
            else 0.0
        )
        capacity = effective[src, dst]
        streaming = bits / capacity if np.isfinite(capacity) else 0.0
        total += head + streaming
    # Plain float: this feeds schedule timestamps that end up in JSON
    # telemetry exports.
    return float(total)


def execute_with_substitution(
    simulator, record: TaskRecord, start: float
) -> Tuple[_ScheduledTask, _Recovery]:
    """Run one barrier-phase task to completion despite core failures,
    pricing every (record, worker) step with the scalar loop."""
    faults = simulator.faults
    recovery = _Recovery()
    worker = record.home_worker
    t = start
    while True:
        if faults.fail_time[worker] <= t:
            substitute = faults.substitute_for(
                worker, t, simulator._worker_freqs
            )
            if substitute is None:
                raise FaultInjectionError(
                    f"no surviving worker to run task "
                    f"{record.task_id} at t={t:.6f}s"
                )
            worker = substitute
            recovery.substitutions += 1
        duration = simulator._task_time(record, worker)
        duration += kv_pull_time(simulator, record, worker)
        fail = float(faults.fail_time[worker])
        if t + duration <= fail:
            return _ScheduledTask(record, worker, t, duration), recovery
        recovery.lost.append((worker, t, fail - t, record.task_id))
        recovery.reexecutions += 1
        t = fail
        substitute = faults.substitute_for(worker, t, simulator._worker_freqs)
        if substitute is None:
            raise FaultInjectionError(
                f"no surviving worker to re-execute task "
                f"{record.task_id} at t={t:.6f}s"
            )
        worker = substitute


def schedule_parallel(
    simulator, records: Sequence[TaskRecord], start: float
) -> Tuple[List[_ScheduledTask], float, Optional[_Recovery]]:
    """One task per owning worker, all starting at the barrier; a task
    whose home worker is dead (or dies mid-execution) runs on a
    policy-chosen substitute instead."""
    schedule = []
    end = start
    if simulator.faults is None:
        for record in records:
            worker = record.home_worker
            duration = simulator._task_time(record, worker) + kv_pull_time(
                simulator, record, worker
            )
            schedule.append(_ScheduledTask(record, worker, start, duration))
            end = max(end, start + duration)
        return schedule, end, None
    recovery = _Recovery()
    for record in records:
        item, item_recovery = execute_with_substitution(
            simulator, record, start
        )
        recovery.merge(item_recovery)
        schedule.append(item)
        end = max(end, item.end_s)
    return schedule, end, recovery
