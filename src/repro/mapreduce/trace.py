"""Execution traces: the contract between the functional MapReduce engine
and the timing/energy simulator.

A :class:`JobTrace` captures everything the architectural study needs from a
Phoenix++ run, independent of any platform:

* the serial library-initialization cost charged to the master worker;
* per-phase task lists with architectural costs (:class:`TaskRecord`);
* the key-value *flow matrix* of the Reduce phase -- how many intermediate
  bytes each reduce partition pulls from each map worker's container, which
  becomes explicit core-to-core NoC traffic;
* the merge tree -- ``log2(workers)`` funnel stages, each half as wide.

Traces are pure data (dataclasses of floats/ints), cheap to copy, and are
replayed by :class:`repro.sim.system.SystemSimulator` under any
platform/V-F/topology configuration without re-running the functional job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.mapreduce.tasks import Phase, TaskCost


@dataclass
class TaskRecord:
    """Platform-independent record of one executed task."""

    task_id: int
    phase: Phase
    cost: TaskCost
    home_worker: int
    #: For reduce tasks: bytes pulled from each map worker's container,
    #: indexed by map worker id.  Empty for non-reduce tasks.
    input_bytes_by_worker: Dict[int, float] = field(default_factory=dict)
    #: For merge tasks: the worker whose buffer is merged *into* this
    #: task's worker (the funnel partner).  ``None`` otherwise.
    partner_worker: Optional[int] = None


@dataclass
class PhaseTrace:
    """All tasks of one phase, plus the stealing policy inputs."""

    phase: Phase
    tasks: List[TaskRecord] = field(default_factory=list)

    @property
    def total_cost(self) -> TaskCost:
        total = TaskCost.zero()
        for record in self.tasks:
            total = total + record.cost
        return total

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass
class MergeStageTrace:
    """One funnel stage of the Merge phase.

    ``pairs`` maps (dst_worker, src_worker) -> bytes moved; each pair is one
    merge task executed on ``dst_worker``.
    """

    stage_index: int
    tasks: List[TaskRecord] = field(default_factory=list)


@dataclass
class IterationTrace:
    """One MapReduce iteration (Kmeans/PCA run two; others one)."""

    iteration: int
    lib_init: TaskRecord
    map_phase: PhaseTrace
    reduce_phase: PhaseTrace
    merge_stages: List[MergeStageTrace] = field(default_factory=list)

    @property
    def merge_tasks(self) -> List[TaskRecord]:
        tasks: List[TaskRecord] = []
        for stage in self.merge_stages:
            tasks.extend(stage.tasks)
        return tasks


@dataclass
class JobTrace:
    """Complete trace of a MapReduce job (possibly multiple iterations)."""

    app_name: str
    num_workers: int
    iterations: List[IterationTrace] = field(default_factory=list)
    #: Final output size in bytes (for reporting only).
    output_bytes: float = 0.0

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def master_workers(self) -> Set[int]:
        """The masters: every iteration's library-init home worker (a
        fresh set per call)."""
        return {iteration.lib_init.home_worker for iteration in self.iterations}

    def all_tasks(self) -> List[TaskRecord]:
        tasks: List[TaskRecord] = []
        for iteration in self.iterations:
            tasks.append(iteration.lib_init)
            tasks.extend(iteration.map_phase.tasks)
            tasks.extend(iteration.reduce_phase.tasks)
            tasks.extend(iteration.merge_tasks)
        return tasks

    def total_instructions(self) -> float:
        return sum(record.cost.instructions for record in self.all_tasks())

    def map_task_count(self) -> int:
        return sum(len(it.map_phase) for it in self.iterations)

    def worker_flow_matrix(self) -> np.ndarray:
        """Aggregate worker-to-worker key-value flow in bytes.

        Entry (i, j) is the number of intermediate bytes worker *j* pulls
        from worker *i* across all reduce and merge tasks.  This matrix --
        after thread mapping -- is the ``f_ip`` term of the paper's VFI
        clustering objective (Eq. 1) and drives WiNoC link allocation.
        """
        flow = np.zeros((self.num_workers, self.num_workers), dtype=float)
        for iteration in self.iterations:
            for record in iteration.reduce_phase.tasks:
                dst = record.home_worker
                for src, nbytes in record.input_bytes_by_worker.items():
                    if src != dst:
                        flow[src, dst] += nbytes
            for record in iteration.merge_tasks:
                if record.partner_worker is not None:
                    src = record.partner_worker
                    dst = record.home_worker
                    if src != dst:
                        flow[src, dst] += record.cost.kv_bytes_in
        return flow

    def scaled(self, factor: float) -> "JobTrace":
        """Return a copy with every task cost scaled by *factor*.

        Used to extrapolate a tractably sized functional run up to the
        paper's dataset sizes (uniform scaling preserves all normalized
        metrics; see DESIGN.md substitution table).
        """
        scaled_iterations = []
        for iteration in self.iterations:
            scaled_iterations.append(
                IterationTrace(
                    iteration=iteration.iteration,
                    lib_init=_scale_record(iteration.lib_init, factor),
                    map_phase=PhaseTrace(
                        Phase.MAP,
                        [_scale_record(r, factor) for r in iteration.map_phase.tasks],
                    ),
                    reduce_phase=PhaseTrace(
                        Phase.REDUCE,
                        [_scale_record(r, factor) for r in iteration.reduce_phase.tasks],
                    ),
                    merge_stages=[
                        MergeStageTrace(
                            stage_index=stage.stage_index,
                            tasks=[_scale_record(r, factor) for r in stage.tasks],
                        )
                        for stage in iteration.merge_stages
                    ],
                )
            )
        return JobTrace(
            app_name=self.app_name,
            num_workers=self.num_workers,
            iterations=scaled_iterations,
            output_bytes=self.output_bytes * factor,
        )


def _scale_record(record: TaskRecord, factor: float) -> TaskRecord:
    return TaskRecord(
        task_id=record.task_id,
        phase=record.phase,
        cost=record.cost.scaled(factor),
        home_worker=record.home_worker,
        input_bytes_by_worker={
            worker: nbytes * factor
            for worker, nbytes in record.input_bytes_by_worker.items()
        },
        partner_worker=record.partner_worker,
    )
