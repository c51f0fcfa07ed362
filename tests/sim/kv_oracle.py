"""Reference task pricing: the scalar per-task and per-record loops.

Before every task went through one vectorized pricer
(``SystemSimulator._task_durations``, which the barrier kernel
``_kv_durations`` builds on), the simulator priced lib init and the
per-task trace spans one task on one worker at a time (:func:`task_time`,
:func:`task_time_parts`, from the memory system's per-node latencies,
:func:`task_stall_s`), and fault-injected reduce/merge phases added this
per-source pull loop, one record and one (substitute) worker at a time.
The scalar pricer, the pull loop, the substitution chain it fed, the
per-record phase loop and the per-node miss-flow registration
(:func:`add_miss_flows`) are kept verbatim as oracles:
``tests/sim/test_kv_kernel.py`` asserts the kernel and the simulator's
barrier schedules equal theirs bit for bit.
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


def task_time(simulator, record: TaskRecord, worker: int) -> float:
    """Compute + memory-stall time of one task on *worker*'s core."""
    compute, stall = task_time_parts(simulator, record, worker)
    return compute + stall


def task_time_parts(
    simulator, record: TaskRecord, worker: int
) -> Tuple[float, float]:
    """(compute, memory stall) seconds of one task on *worker*'s core."""
    platform = simulator.platform
    node = platform.node_of_worker(worker)
    # The effective frequency map: identical floats to
    # ``platform.frequency_of_worker`` on fault-free runs, degraded by
    # stragglers/throttles under fault injection.
    frequency = float(simulator._worker_freqs[worker])
    cost = record.cost
    compute = cost.instructions / platform.core_params.ipc / frequency
    stall = task_stall_s(
        simulator.memory,
        node,
        cost.l2_accesses,
        cost.memory_accesses,
        platform.core_params.mlp_overlap,
    )
    return compute, stall


def l2_round_trip_s(memory, node: int) -> float:
    """Expected L1-miss service time for a core at *node*."""
    return float(memory.l2_round_trip_all_s()[node])


def memory_extra_s(memory, node: int) -> float:
    """Expected additional time when the access also misses in L2."""
    return float(memory.memory_extra_all_s()[node])


def task_stall_s(
    memory, node: int, l2_accesses: float, memory_accesses: float, mlp: float
) -> float:
    """Total stall time charged to a task, with MLP overlap."""
    if mlp <= 0:
        raise ValueError(f"mlp must be > 0, got {mlp}")
    raw = (
        l2_accesses * l2_round_trip_s(memory, node)
        + memory_accesses * memory_extra_s(memory, node)
    )
    return raw / mlp


def add_miss_flows(memory, node: int, accesses_per_s: float) -> None:
    """Register a core's sustained miss traffic with the flow model."""
    if accesses_per_s < 0:
        raise ValueError(f"accesses_per_s must be >= 0, got {accesses_per_s}")
    if accesses_per_s == 0:
        return
    memory.platform.network.apply_resource_load(
        accesses_per_s * memory._miss_usage[node]
    )


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
            substitute = faults.substitute_for(worker, t)
            if substitute is None:
                raise FaultInjectionError(
                    f"no surviving worker to run task "
                    f"{record.task_id} at t={t:.6f}s"
                )
            worker = substitute
            recovery.substitutions += 1
        duration = task_time(simulator, record, worker)
        duration += kv_pull_time(simulator, record, worker)
        fail = float(faults.fail_time[worker])
        if t + duration <= fail:
            return _ScheduledTask(record, worker, t, duration), recovery
        recovery.lost.append((worker, t, fail - t, record.task_id))
        recovery.reexecutions += 1
        t = fail
        substitute = faults.substitute_for(worker, t)
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
            duration = task_time(simulator, record, worker) + kv_pull_time(
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
