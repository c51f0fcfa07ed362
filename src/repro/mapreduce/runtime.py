"""Functional MapReduce runtime.

Executes a :class:`repro.mapreduce.job.MapReduceJob` with *num_workers*
logical workers, producing both the real computed result and the
platform-independent :class:`repro.mapreduce.trace.JobTrace` that the
timing simulator replays.

Execution follows Phoenix++ (paper Fig. 1):

1. **Library init** -- serial work on the master worker (task scheduling
   and key/value storage allocation), once per MapReduce iteration.
2. **Split** -- the job divides its input into similarly sized chunks.
3. **Map** -- chunks become tasks, distributed round-robin to worker
   queues; workers drain their own queue then steal (policy-controlled);
   each executed task emits pairs into the *executing* worker's container.
4. **Reduce** -- one reduce task per worker; task *r* pulls the keys that
   hash into partition *r* from every worker's container, merges their
   accumulators and finalizes.  The per-source byte counts recorded here
   are exactly the core-to-core traffic the VFI clustering and the WiNoC
   link allocation consume.
5. **Merge** -- a binary funnel over the sorted per-partition outputs;
   each stage halves the number of active workers, which is why specific
   cores stay busy late in the run (the paper's bottleneck cores).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.mapreduce.containers import Container, stable_key_hash
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.scheduler import StealingPolicy, TaskQueueSet
from repro.mapreduce.tasks import Phase, Task, TaskCost
from repro.mapreduce.trace import (
    IterationTrace,
    JobTrace,
    MergeStageTrace,
    PhaseTrace,
    TaskRecord,
)


class MapReduceRuntime:
    """Runs jobs functionally and records execution traces.

    Parameters
    ----------
    num_workers:
        Number of logical workers (one per simulated core; 64 in the paper).
    policy:
        Task-stealing policy for the Map phase; defaults to Phoenix++'s
        unmodified greedy stealing.
    master_worker:
        Worker charged with library initialization (worker 0, mirroring
        the Phoenix++ master thread).
    """

    def __init__(
        self,
        num_workers: int,
        policy: Optional[StealingPolicy] = None,
        master_worker: int = 0,
    ):
        if num_workers <= 0:
            raise ValueError(f"num_workers must be > 0, got {num_workers}")
        if not 0 <= master_worker < num_workers:
            raise ValueError(
                f"master_worker {master_worker} out of range [0, {num_workers})"
            )
        self.num_workers = num_workers
        self.policy = policy
        self.master_worker = master_worker

    # ------------------------------------------------------------------ #

    def run(self, job: MapReduceJob) -> Tuple[Any, JobTrace]:
        """Execute *job*; return ``(result, trace)``.

        The result is whatever :meth:`MapReduceJob.final_result` returns;
        the trace covers every iteration the job actually ran.
        """
        trace = JobTrace(app_name=job.name, num_workers=self.num_workers)
        task_counter = _Counter()
        last_result: Dict[Hashable, Any] = {}
        for iteration in range(job.max_iterations()):
            if not job.begin_iteration(iteration):
                break
            iteration_trace, last_result = self._run_iteration(
                job, iteration, task_counter
            )
            trace.iterations.append(iteration_trace)
            job.end_iteration(iteration, last_result)
        if not trace.iterations:
            raise RuntimeError(f"job {job.name!r} declined to run any iteration")
        trace.output_bytes = len(last_result) * job.config.bytes_per_pair
        result = job.final_result(last_result)
        if job.config.trace_scale != 1.0:
            trace = trace.scaled(job.config.trace_scale)
        return result, trace

    # ------------------------------------------------------------------ #

    def _run_iteration(
        self, job: MapReduceJob, iteration: int, counter: "_Counter"
    ) -> Tuple[IterationTrace, Dict[Hashable, Any]]:
        config = job.config
        chunks = job.split(job.num_map_tasks(self.num_workers))
        if not chunks:
            raise ValueError(f"job {job.name!r} produced no map chunks")

        lib_init = TaskRecord(
            task_id=counter.next(),
            phase=Phase.LIB_INIT,
            cost=self._make_cost(
                config,
                instructions=config.lib_init_instructions
                + 2_000.0 * len(chunks),  # per-task scheduling bookkeeping
            ),
            home_worker=self.master_worker,
        )

        map_phase, containers = self._run_map(job, chunks, counter)
        reduce_phase, partitions = self._run_reduce(job, containers, counter)
        merge_stages, merged = self._run_merge(job, partitions, counter)
        return (
            IterationTrace(
                iteration=iteration,
                lib_init=lib_init,
                map_phase=map_phase,
                reduce_phase=reduce_phase,
                merge_stages=merge_stages,
            ),
            merged,
        )

    def _run_map(
        self, job: MapReduceJob, chunks: List[Any], counter: "_Counter"
    ) -> Tuple[PhaseTrace, List[Container]]:
        config = job.config
        containers = [job.make_container() for _ in range(self.num_workers)]
        tasks = [
            Task(
                task_id=counter.next(),
                phase=Phase.MAP,
                payload=chunk,
                home_worker=index % self.num_workers,
            )
            for index, chunk in enumerate(chunks)
        ]
        queues = TaskQueueSet(self.num_workers, self.policy or _default_policy())
        queues.load(tasks)
        phase = PhaseTrace(Phase.MAP)
        for worker, task in queues.drain_serial():
            emitted = _CountingEmit(containers[worker])
            returned = job.map(task.payload, emitted)
            if isinstance(returned, tuple):
                work, miss_weight = returned
            else:
                work, miss_weight = returned, 1.0
            if work is None or work < 0:
                raise ValueError(
                    f"{job.name}.map must return non-negative work units, got {returned!r}"
                )
            if miss_weight < 0:
                raise ValueError(
                    f"{job.name}.map miss weight must be >= 0, got {miss_weight}"
                )
            instructions = work * config.instructions_per_map_unit
            phase.tasks.append(
                TaskRecord(
                    task_id=task.task_id,
                    phase=Phase.MAP,
                    cost=self._make_cost(
                        config,
                        instructions=instructions,
                        kv_bytes_out=emitted.count * config.bytes_per_pair,
                        miss_weight=miss_weight,
                    ),
                    home_worker=worker,
                )
            )
        return phase, containers

    def _run_reduce(
        self, job: MapReduceJob, containers: List[Container], counter: "_Counter"
    ) -> Tuple[PhaseTrace, List[Dict[Hashable, Any]]]:
        config = job.config
        phase = PhaseTrace(Phase.REDUCE)
        partitions: List[Dict[Hashable, Any]] = []
        combiner = job.combiner()
        slices = [
            container.partitions(self.num_workers) for container in containers
        ]
        for partition in range(self.num_workers):
            grouped: Dict[Hashable, List[Any]] = defaultdict(list)
            bytes_by_worker: Dict[int, float] = {}
            for worker, buckets in enumerate(slices):
                pulled = buckets.get(partition, ())
                for key, acc in pulled:
                    grouped[key].append(acc)
                if pulled:
                    bytes_by_worker[worker] = len(pulled) * config.bytes_per_pair
            output: Dict[Hashable, Any] = {}
            work = 0.0
            for key, accumulators in grouped.items():
                merged = accumulators[0]
                for acc in accumulators[1:]:
                    merged = combiner.merge(merged, acc)
                output[key] = job.reduce_finalize(key, merged)
                work += job.reduce_work(key, accumulators)
            kv_in = sum(bytes_by_worker.values())
            phase.tasks.append(
                TaskRecord(
                    task_id=counter.next(),
                    phase=Phase.REDUCE,
                    cost=self._make_cost(
                        config,
                        instructions=work * config.instructions_per_reduce_pair,
                        kv_bytes_in=kv_in,
                        kv_bytes_out=len(output) * config.bytes_per_pair,
                    ),
                    home_worker=partition,
                    input_bytes_by_worker=bytes_by_worker,
                )
            )
            partitions.append(output)
        return phase, partitions

    def _run_merge(
        self,
        job: MapReduceJob,
        partitions: List[Dict[Hashable, Any]],
        counter: "_Counter",
    ) -> Tuple[List[MergeStageTrace], Dict[Hashable, Any]]:
        config = job.config
        merged_all: Dict[Hashable, Any] = {}
        for partition in partitions:
            merged_all.update(partition)
        if not job.merge_enabled():
            return [], merged_all

        # Sorted buffers per worker; sizes drive the funnel costs.
        buffers: Dict[int, List[Tuple[Any, Any]]] = {}
        for worker, partition in enumerate(partitions):
            entries = sorted(
                partition.items(), key=lambda kv: _orderable(job.sort_key(*kv))
            )
            buffers[worker] = entries

        stages: List[MergeStageTrace] = []
        active = sorted(buffers)
        stage_index = 0
        while len(active) > 1:
            stage = MergeStageTrace(stage_index=stage_index)
            survivors: List[int] = []
            for pair_start in range(0, len(active) - 1, 2):
                dst, src = active[pair_start], active[pair_start + 1]
                dst_buffer, src_buffer = buffers[dst], buffers[src]
                merged = _merge_sorted(dst_buffer, src_buffer, job)
                buffers[dst] = merged
                del buffers[src]
                src_bytes = len(src_buffer) * config.bytes_per_pair
                total_bytes = len(merged) * config.bytes_per_pair
                stage.tasks.append(
                    TaskRecord(
                        task_id=counter.next(),
                        phase=Phase.MERGE,
                        cost=self._make_cost(
                            config,
                            instructions=total_bytes
                            * config.instructions_per_merge_byte,
                            kv_bytes_in=src_bytes,
                            kv_bytes_out=total_bytes,
                        ),
                        home_worker=dst,
                        partner_worker=src,
                    )
                )
                survivors.append(dst)
            if len(active) % 2 == 1:
                survivors.append(active[-1])
            stages.append(stage)
            active = survivors
            stage_index += 1
        final_worker = active[0]
        final_output = dict(buffers[final_worker])
        return stages, final_output

    @staticmethod
    def _make_cost(
        config, *, instructions: float, miss_weight: float = 1.0, **kv
    ) -> TaskCost:
        """Derive memory-system costs from the instruction count.

        ``miss_weight`` scales the task's miss intensity relative to the
        job's nominal MPKI -- how data-dependent cache behaviour (e.g.
        k-means' unconverged clusters) shows up as per-core IPC
        heterogeneity in the paper's Fig. 2.
        """
        kilo = instructions / 1000.0
        return TaskCost(
            instructions=instructions,
            l2_accesses=kilo * config.l1_mpki * miss_weight,
            memory_accesses=kilo * config.l2_mpki * miss_weight,
            **kv,
        )


class _CountingEmit:
    """Emit callable that counts emissions into a container."""

    def __init__(self, container: Container):
        self.container = container
        self.count = 0

    def __call__(self, key: Hashable, value: Any) -> None:
        self.container.emit(key, value)
        self.count += 1


class _Counter:
    def __init__(self) -> None:
        self._value = 0

    def next(self) -> int:
        value = self._value
        self._value += 1
        return value


def _default_policy() -> StealingPolicy:
    from repro.mapreduce.scheduler import DefaultStealingPolicy

    return DefaultStealingPolicy()


def _orderable(key: Any) -> Any:
    """Make heterogeneous sort keys comparable (ints vs strings vs tuples)."""
    return (type(key).__name__, key) if not isinstance(key, tuple) else ("tuple", key)


def _merge_sorted(
    left: List[Tuple[Any, Any]], right: List[Tuple[Any, Any]], job: MapReduceJob
) -> List[Tuple[Any, Any]]:
    """Classic two-way merge on the job's sort key."""
    merged: List[Tuple[Any, Any]] = []
    i = j = 0
    while i < len(left) and j < len(right):
        lkey = _orderable(job.sort_key(*left[i]))
        rkey = _orderable(job.sort_key(*right[j]))
        if lkey <= rkey:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def run_job(
    job: MapReduceJob,
    num_workers: int,
    policy: Optional[StealingPolicy] = None,
    master_worker: int = 0,
) -> Tuple[Any, JobTrace]:
    """Convenience wrapper: run *job* on a fresh runtime."""
    runtime = MapReduceRuntime(num_workers, policy=policy, master_worker=master_worker)
    return runtime.run(job)
