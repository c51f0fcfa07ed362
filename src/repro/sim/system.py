"""The full-system discrete-event simulator.

Replays a :class:`repro.mapreduce.trace.JobTrace` on a
:class:`repro.sim.platform.Platform`:

* **library init** runs serially on the master worker's core;
* the **Map** phase is event-driven: each core pulls from its queue and
  then steals according to the configured policy, with steal decisions
  ordered by simulated completion times -- this is where the paper's
  Eq. (3) cap changes behaviour;
* **Reduce** runs one task per worker after a barrier, each pulling its
  key-value partition slices from every producer core over the NoC;
* **Merge** runs the funnel stages with a barrier per stage, each merge
  task pulling its partner's buffer across the NoC.

Each phase is relaxed to a latency/traffic fixed point: durations are
computed with the current NoC load estimate, the implied flows are
re-registered, latencies refreshed, and the phase re-scheduled until the
phase end time converges (``SimulationParams.relaxation_rtol`` relative
change, bounded by ``max_relaxation_iterations``).  Energy is recorded
once, for the committed schedule.

Clean and fault-injected runs share one implementation of each
mechanism -- task pricing, map dispatch, barrier-phase pricing, the
energy fold; the scalar references live on as oracles in
``tests/sim/``.  Phase boundaries run the runtime controls -- a fault
plan, the cap governor or a per-phase V/F schedule
(``SimulationParams.vf_schedule``) -- and each re-clocks the platform
through the same energy-segment switch.

Flow registration is vectorized: per-phase miss traffic enters the NoC
through one mat-vec over precomputed per-node resource rows
(:meth:`repro.sim.memory.MemorySystem.add_miss_flows_batch`) and
key-value streams through the phase's flow view
(:class:`repro.noc.network.PairFlows`, kept across rounds by the
phase's :class:`_KvPlan`); map-task durations are evaluated as one
broadcasted (records x workers) matrix per relaxation round.  A
committed phase folds its work and NoC energy in one ordered pass
(:meth:`SystemSimulator._fold_phase_energy`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.energy.metrics import EnergyBreakdown
from repro.faults.engine import FaultEngine
from repro.faults.spec import FaultInjectionError
from repro.mapreduce.scheduler import (
    DefaultStealingPolicy,
    StealingPolicy,
    TaskQueueSet,
    home_queues,
    retune_policy,
)
from repro.mapreduce.tasks import Phase, Task
from repro.mapreduce.trace import JobTrace, TaskRecord
from repro.noc.network import FlowNetworkModel, PairFlows
from repro.noc.packets import kv_stream_bits
from repro.power.governor import CapGovernor
from repro.power.spec import normalize_cap
from repro.sim.config import SimulationParams
from repro.sim.memory import MemorySystem
from repro.sim.platform import Platform
from repro.sim.stats import NetworkStats, PhaseStats, SimulationResult
from repro.telemetry import get_tracer


@dataclass
class _ScheduledTask:
    record: TaskRecord
    worker: int
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class _Recovery:
    """Per-phase fault-recovery bookkeeping for the committed schedule.

    ``lost`` holds ``(worker, start_s, duration_s, task_id)`` intervals
    burnt on executions a core failure killed; the time was spent (and is
    charged as busy/dynamic energy) but the work was not."""

    lost: List[Tuple[int, float, float, int]] = field(default_factory=list)
    reexecutions: int = 0
    substitutions: int = 0

    def merge(self, other: "_Recovery") -> None:
        self.lost.extend(other.lost)
        self.reexecutions += other.reexecutions
        self.substitutions += other.substitutions


@dataclass
class _Segment:
    """One closed energy-accounting segment: a stretch of the run on one
    platform configuration (a clean run is a single segment).

    Network counters are captured when the segment closes (at the
    platform switch), not at finalize: a run that revisits a platform
    object -- the cap governor re-raising to the base assignment --
    rebuilds that platform's network, which would otherwise lose the
    earlier segment's accumulated energy."""

    platform: Platform
    elapsed_s: float
    busy_s: np.ndarray
    noc_dynamic_j: float
    noc_static_j: float
    bits_moved: float
    bit_hops: float
    wireless_bits: float

    @classmethod
    def snapshot(
        cls, platform: Platform, elapsed_s: float, busy_s: np.ndarray
    ) -> "_Segment":
        """Snapshot *platform*'s network counters as of now."""
        network = platform.network
        return cls(
            platform=platform,
            elapsed_s=elapsed_s,
            busy_s=busy_s,
            noc_dynamic_j=network.energy.dynamic_joules,
            noc_static_j=network.static_energy(elapsed_s),
            bits_moved=network.energy.bits_moved,
            bit_hops=network.energy.bit_hops,
            wireless_bits=network.energy.wireless_bits,
        )


class _Costs(NamedTuple):
    """The costs of a list of task records as arrays, one entry per
    record, for :meth:`SystemSimulator._task_durations` (lib init and
    the trace spans; the map and kv plans carry their own)."""

    instructions: np.ndarray
    l2: np.ndarray
    mem: np.ndarray

    @classmethod
    def of(cls, records: Sequence[TaskRecord]) -> "_Costs":
        return cls(
            np.array([r.cost.instructions for r in records]),
            np.array([r.cost.l2_accesses for r in records]),
            np.array([r.cost.memory_accesses for r in records]),
        )


@dataclass
class _MapPlan:
    """Phase-invariant map-dispatch structures, built once per phase:
    task costs (columns, to broadcast against workers), the records in
    duration-row order, the queue-set tasks grouped by home worker, each
    carrying its record's row as payload, and the phase's stealing
    policy, prepared for that allocation."""

    instructions: np.ndarray
    l2: np.ndarray
    mem: np.ndarray
    records: Sequence[TaskRecord]
    homes: List[List[Task]]
    policy: StealingPolicy


@dataclass
class _KvPlan:
    """Phase-invariant index arrays for a barrier (reduce/merge) phase.

    Everything here depends only on the records -- home workers, task
    costs, and the flattened key-value source list (record row, source
    node, stream bits) -- so it is built once per phase and reused by
    every relaxation round's duration evaluation, the flow
    registration, and the committed energy fold.  Only the latency
    tables and (under faults) the executing workers change between
    rounds.

    ``kv_*`` arrays are flattened over all records' sources in record
    order (the order :meth:`SystemSimulator._kv_sources` lists them);
    ``kv_bounds`` is the CSR-style record boundary, and ``kv_slot`` each
    source's position within its record (for scattering per-source
    terms into the zero-padded per-record summation rows).

    ``singles`` keeps, for the phase, the one-record plan a faulted task
    is priced on, per (record row, executing worker)
    (:meth:`SystemSimulator._single_duration`).
    """

    home: np.ndarray
    instructions: np.ndarray
    l2: np.ndarray
    mem: np.ndarray
    kv_rec: np.ndarray
    kv_src: np.ndarray
    kv_slot: np.ndarray
    kv_bits: np.ndarray
    kv_minbits: np.ndarray
    kv_bounds: np.ndarray
    width: int
    singles: Dict[Tuple[int, int], "_KvPlan"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _pricing: Optional["_KvPricing"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _flows: Optional[PairFlows] = field(
        default=None, init=False, repr=False, compare=False
    )

    def pull_times(self, memory: MemorySystem, dst: np.ndarray) -> np.ndarray:
        """Per-entry pull time toward the destination nodes *dst* (one
        per entry) under *memory*'s last refresh.

        Pricing and flow registration each keep one view of the entries
        for the phase, in a slot of their own, so every relaxation round
        reuses them: a faulted phase prices on the home workers while it
        registers flows on the executing ones.  Each view is checked
        against the current memory system, network and destinations on
        every use, never assumed, so a platform switch or a substituted
        executing worker gets a fresh one."""
        pricing = self._pricing
        if pricing is None or not pricing.serves(memory, dst):
            pricing = self._pricing = _KvPricing(self, memory, dst)
        return pricing.pull_times()

    def register_flows(
        self, network: FlowNetworkModel, dst: np.ndarray, bits_per_s: np.ndarray
    ) -> None:
        """Add the entries' streams into the destination nodes *dst* at
        *bits_per_s* onto *network*'s loads, through the plan's flow view
        (:class:`repro.noc.network.PairFlows` of the bulk class)."""
        flows = self._flows
        if (
            flows is None
            or flows.network is not network
            or not np.array_equal(flows.dst, dst)
        ):
            flows = self._flows = PairFlows(network, self.kv_src, dst, bulk=True)
        flows.register(bits_per_s)


class _KvPricing:
    """A barrier phase's kv entries priced on one memory system, toward
    one set of destination nodes: the load-independent parts of every
    relaxation round's pull times.

    It holds the bulk binary-usage gather of path capacity
    (:class:`repro.noc.dense.PairCapacity`), the flat ``src * n + dst``
    index of the loaded-head gather and the load-independent
    head-serialization term of every entry (its ``minbits / raw``
    divides in the raw-bottleneck table's dtype, as the scalar loop's
    ``pyfloat / float32`` does under NEP 50)."""

    def __init__(self, plan: _KvPlan, memory: MemorySystem, dst: np.ndarray):
        self.memory = memory
        self.network = memory.platform.network
        self.dst = dst
        self._bits = plan.kv_bits
        self._flat = plan.kv_src * memory.num_nodes + dst
        raw = np.take(memory.bulk_raw_bottleneck_bps, self._flat)
        minbits = plan.kv_minbits.astype(raw.dtype, copy=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._head_ser = np.where(np.isfinite(raw), minbits / raw, 0.0)
        self._capacity = memory.dense_bulk.pair_capacity(plan.kv_src, dst)

    def serves(self, memory: MemorySystem, dst: np.ndarray) -> bool:
        """Whether this view prices toward *dst* on *memory* as it is now."""
        return (
            self.memory is memory
            and self.network is memory.platform.network
            and np.array_equal(self.dst, dst)
        )

    def pull_times(self) -> np.ndarray:
        """Per-entry pull time under the memory system's last refresh:
        loaded head plus head serialization, then streaming at the
        effective path capacity."""
        memory = self.memory
        capacity = self._capacity(memory.bulk_inverse_capacity)
        with np.errstate(divide="ignore", invalid="ignore"):
            streaming = np.where(
                np.isfinite(capacity), self._bits / capacity, 0.0
            )
        base = np.take(memory.bulk_base_latency_s, self._flat)
        return (base + self._head_ser) + streaming


class SystemSimulator:
    """Simulates one trace on one platform.

    The simulator is single-use -- construct, :meth:`run` once: a run
    leaves its network counters, fault engine and governor behind, so a
    second :meth:`run` raises.  :func:`simulate` builds one per call.

    Parameters
    ----------
    platform:
        Hardware configuration (fresh network state per simulator).
    locality:
        The application's L2-access locality (see
        :class:`repro.sim.memory.MemorySystem`).
    stealing_policy:
        Map-phase stealing policy; ``None`` selects Phoenix++'s default
        greedy stealing.
    params:
        Solver knobs.
    """

    def __init__(
        self,
        platform: Platform,
        locality: float = 0.0,
        stealing_policy: Optional[StealingPolicy] = None,
        params: SimulationParams = SimulationParams(),
    ):
        self.platform = platform
        # Fresh network per simulation so runs never share load/energy state.
        platform.network = platform.build_network()
        # Telemetry: captured once (install a tracer before construction).
        # Simulated-time spans are grouped under the platform name.
        self.tracer = get_tracer()
        platform.network.trace_label = platform.name
        self.memory = MemorySystem(platform, locality)
        self.policy = stealing_policy
        self.params = params
        self._kv_chunk_bits = kv_stream_bits(params.kv_chunk_bytes)
        # Bulk key-value streams use the wire-preferring message class;
        # the memory system already holds the pairwise-energy tables for
        # that class, so share them instead of rebuilding.
        self._bulk_energy = self.memory.pairwise_bulk
        n = platform.num_cores
        self._worker_nodes = np.array(
            [platform.node_of_worker(w) for w in range(n)]
        )
        # Effective = island clock x per-island core perf multiplier; on
        # the homogeneous paper platform this is worker_frequencies().
        self._worker_freqs = np.array(platform.effective_worker_frequencies())
        # Fault injection: an empty plan is normalized to "no plan" so the
        # two are indistinguishable everywhere (results, caches, traces).
        self._locality = locality
        self._base_policy = stealing_policy
        self._base_platform = platform
        plan = params.fault_plan
        if plan is not None and len(plan) == 0:
            plan = None
        self.faults: Optional[FaultEngine] = (
            FaultEngine(platform, plan, tracer=self.tracer)
            if plan is not None
            else None
        )
        # Power capping: the unbounded spec is normalized to "no cap" so
        # uncapped runs construct no governor and never poll one.
        cap = normalize_cap(params.power_cap)
        self.governor: Optional[CapGovernor] = (
            CapGovernor(platform, cap, tracer=self.tracer)
            if cap is not None
            else None
        )
        # The fault engine's current view; the governor's ladder steps
        # stack on top of it.
        self._fault_platform = platform
        # A per-phase V/F schedule re-clocks the platform at the same
        # boundaries the fault engine and the governor act on, so it
        # runs alone.
        schedule = params.vf_schedule
        if schedule is not None and (
            self.faults is not None or self.governor is not None
        ):
            raise ValueError(
                "a V/F schedule does not combine with fault plans or power caps"
            )
        self._vf_views = None if schedule is None else schedule.views(platform)
        self._ran = False

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run(self, trace: JobTrace) -> SimulationResult:
        if self._ran:
            raise RuntimeError(
                "SystemSimulator.run was already called; build a new "
                "simulator or call simulate()"
            )
        if trace.num_workers != self.platform.num_cores:
            raise ValueError(
                f"trace has {trace.num_workers} workers, platform has "
                f"{self.platform.num_cores} cores"
            )
        self._ran = True
        busy = np.zeros(self.platform.num_cores)
        self._committed = np.zeros(self.platform.num_cores)
        phases: List[PhaseStats] = []
        now = 0.0
        if self.faults is not None:
            self.faults.begin(trace)
        if self.governor is not None:
            self.governor.begin(trace)
        # Segmented energy accounting: each platform change (throttle or
        # fabric degradation) closes a :class:`_Segment`; the last one
        # closes at the end of the run.
        self._segments: List[_Segment] = []
        self._segment_start = 0.0
        self._busy_snapshot = np.zeros(self.platform.num_cores)
        self._run_busy = busy
        self._vf_view: Optional[Platform] = None
        for iteration in trace.iterations:
            now = self._apply_boundary_controls(now, Phase.LIB_INIT)
            now = self._run_lib_init(iteration.lib_init, now, busy, phases, iteration.iteration)
            now = self._apply_boundary_controls(now, Phase.MAP)
            now = self._run_map(
                iteration.map_phase.tasks, now, busy, phases, iteration.iteration
            )
            now = self._apply_boundary_controls(now, Phase.REDUCE)
            now = self._run_barrier(
                Phase.REDUCE, iteration.reduce_phase.tasks, now, busy, phases,
                iteration.iteration,
            )
            for stage in iteration.merge_stages:
                now = self._apply_boundary_controls(now, Phase.MERGE)
                now = self._run_barrier(
                    Phase.MERGE, stage.tasks, now, busy, phases,
                    iteration.iteration,
                )
        total_time = now
        return self._finalize(trace, total_time, busy, phases)

    def _apply_boundary_controls(self, now: float, phase: Phase) -> float:
        """Phase-boundary control hook, run at *now* before *phase*:
        follow the V/F schedule, or activate due fault events and poll
        the cap governor; then refresh the effective platform /
        frequency / policy views.  Returns the time *phase* starts at,
        which a V/F transition delays.  A no-op (zero float operations)
        for clean runs.

        Faults run first: the governor's ladder steps stack on top of
        the fault engine's degraded view, never the other way around."""
        if self._vf_views is not None:
            return self._follow_vf_schedule(now, phase)
        faults = self.faults
        governor = self.governor
        if faults is None and governor is None:
            return now
        dirty = False
        if faults is not None:
            platform_dirty, freqs_dirty = faults.activate_due(now)
            if platform_dirty:
                fault_platform = faults.effective_platform()
                if fault_platform is not self._fault_platform:
                    self._fault_platform = fault_platform
                    if governor is not None:
                        governor.rebase(fault_platform)
            dirty = platform_dirty or freqs_dirty
        if governor is not None:
            dirty = governor.poll(now, self._run_busy) or dirty
        if not dirty:
            return now
        effective = (
            governor.effective_platform()
            if governor is not None
            else self._fault_platform
        )
        if effective is not self.platform:
            self._switch_platform(effective, now)
        self._refresh_speed_views()
        return now

    def _follow_vf_schedule(self, now: float, phase: Phase) -> float:
        """Run *phase* on the schedule's view of the platform.  A change
        of assignment closes the energy segment at *now*, and the new
        view's segment opens with the schedule's ``transition_s``, when
        the clock stands while the islands re-lock; the run's first
        phase starts on its view without one."""
        view = self._vf_views[phase]
        previous, self._vf_view = self._vf_view, view
        if view is not self.platform:
            self._switch_platform(view, now)
            self._refresh_speed_views()
        if previous is None or view is previous:
            return now
        return now + self.params.vf_schedule.transition_s

    def _switch_platform(self, new_platform: Platform, now: float) -> None:
        """Close the current energy segment and install *new_platform*
        (fresh network state, fresh memory view)."""
        self._close_segment(now)
        self.platform = new_platform
        new_platform.network = new_platform.build_network()
        new_platform.network.trace_label = new_platform.name
        self.memory = MemorySystem(new_platform, self._locality)
        self._bulk_energy = self.memory.pairwise_bulk

    def _close_segment(self, now: float) -> None:
        """Snapshot the outgoing platform's elapsed/busy/network state."""
        elapsed = max(float(now - self._segment_start), 0.0)
        self._segments.append(
            _Segment.snapshot(
                self.platform,
                elapsed,
                (self._run_busy - self._busy_snapshot).copy(),
            )
        )
        self._busy_snapshot = self._run_busy.copy()
        self._segment_start = now

    def _refresh_speed_views(self) -> None:
        """Rebuild the frequency map and stealing policy for the current
        effective platform: the island clocks divided by the straggler
        slowdowns, with the Eq. (3) caps re-derived on them (Sec. 4.3).

        Dead workers keep their clock: executions before the failure
        instant run at full speed, and everything after it is excluded
        via the fault engine's ``fail_time``, never via frequency."""
        freqs = np.array(self.platform.effective_worker_frequencies())
        if self.faults is not None:
            freqs = freqs / self.faults.slowdown
        self._worker_freqs = freqs
        self.policy = retune_policy(self._base_policy, freqs)

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #

    def _run_lib_init(
        self,
        record: TaskRecord,
        start: float,
        busy: np.ndarray,
        phases: List[PhaseStats],
        iteration: int,
    ) -> float:
        self.platform.network.reset_flows()
        self.memory.refresh_latencies()
        costs = _Costs.of([record])
        item, recovery = self._execute_with_substitution(
            record,
            start,
            lambda worker: self._task_durations(costs, np.array([worker])).item(),
        )
        self._fold_recovery(recovery, busy)
        busy[item.worker] += item.duration_s
        cost = record.cost
        self._fold_phase_energy(
            [item.worker], [cost.instructions], [cost.l2_accesses],
            [cost.memory_accesses],
        )
        phases.append(
            PhaseStats(Phase.LIB_INIT, iteration, start, item.end_s)
        )
        if self.tracer.enabled:
            self._trace_phase(phases[-1])
            self._trace_tasks([item], Phase.LIB_INIT)
        return item.end_s

    def _relax_phase(
        self,
        schedule_fn,
        start: float,
        plan: Optional[_KvPlan] = None,
    ):
        """Drive one phase to its latency/traffic fixed point.

        ``schedule_fn`` reschedules the phase under the current latency
        estimate and returns a tuple whose first two entries are
        ``(schedule, end)``; the committed result tuple is returned.
        ``plan`` carries a barrier phase's key-value streams into the
        flow registration (map phases have none).

        Rounds run until the phase end time moves by at most
        ``relaxation_rtol`` of the phase duration (at most
        ``max_relaxation_iterations``); the converged schedule commits.
        """
        params = self.params
        rtol = params.relaxation_rtol
        result = schedule_fn()
        iterations = 1
        residual = 0.0
        for _ in range(params.max_relaxation_iterations):
            schedule, end = result[0], result[1]
            self._register_phase_flows(
                schedule, max(end - start, 1e-12), plan
            )
            self.memory.refresh_latencies()
            result = schedule_fn()
            iterations += 1
            new_end = result[1]
            residual = abs(new_end - end) / max(new_end - start, 1e-12)
            # The break test is kept undivided: dividing first rounds
            # differently and would move where some phases stop.
            if abs(new_end - end) <= rtol * max(new_end - start, 1e-12):
                break
        if self.tracer.enabled:
            pid = self.platform.name
            self.tracer.counter_add(
                "sim.relaxation_iterations", float(iterations), key=pid
            )
            self.tracer.histogram_record(
                "sim.relaxation_iterations", float(iterations)
            )
            self.tracer.sample(
                "sim.relaxation_residual",
                start,
                residual,
                pid=pid,
                tid="relaxation",
            )
        return result

    def _run_map(
        self,
        records: Sequence[TaskRecord],
        start: float,
        busy: np.ndarray,
        phases: List[PhaseStats],
        iteration: int,
    ) -> float:
        plan = self._map_plan(records)
        schedule, end, queues, recovery = self._relax_phase(
            lambda: self._schedule_map(
                start,
                self._task_durations(plan, np.arange(self.platform.num_cores)),
                plan,
            ),
            start,
        )
        for item in schedule:
            busy[item.worker] += item.duration_s
        costs = [item.record.cost for item in schedule]
        self._fold_phase_energy(
            [item.worker for item in schedule],
            [cost.instructions for cost in costs],
            [cost.l2_accesses for cost in costs],
            [cost.memory_accesses for cost in costs],
        )
        self._fold_recovery(recovery, busy)
        phases.append(PhaseStats(Phase.MAP, iteration, start, end))
        if self.tracer.enabled:
            # Stealing statistics come from the committed schedule's queue
            # set only, so the counters reflect what actually ran.
            tracer = self.tracer
            pid = self.platform.name
            tracer.counter_add(
                "sched.steal_attempts", queues.steal_attempts, key=pid
            )
            tracer.counter_add("sched.steals", queues.steals, key=pid)
            tracer.counter_add(
                "sched.cap_rejections", queues.cap_rejections, key=pid
            )
            self._trace_phase(phases[-1])
            self._trace_tasks(schedule, Phase.MAP)
            self.platform.network.sample_channel_occupancy(start)
        return end

    def _map_plan(self, records: Sequence[TaskRecord]) -> _MapPlan:
        """Build the phase-invariant :class:`_MapPlan` for *records*.

        The home workers are checked and the current stealing policy is
        prepared for their allocation here, once per phase: the policy
        only changes at phase boundaries, so every relaxation round
        refills its queues from the same plan."""
        num_workers = self.platform.num_cores
        homes = home_queues(
            [
                Task(
                    task_id=record.task_id,
                    phase=Phase.MAP,
                    payload=row,
                    home_worker=record.home_worker,
                )
                for row, record in enumerate(records)
            ],
            num_workers,
        )
        policy = self.policy or DefaultStealingPolicy()
        policy.prepare(len(records), num_workers, [len(home) for home in homes])
        return _MapPlan(
            instructions=np.array([r.cost.instructions for r in records])[:, None],
            l2=np.array([r.cost.l2_accesses for r in records])[:, None],
            mem=np.array([r.cost.memory_accesses for r in records])[:, None],
            records=records,
            homes=homes,
            policy=policy,
        )

    def _task_durations(self, costs, workers: np.ndarray) -> np.ndarray:
        """Compute + stall seconds of *costs*' tasks on *workers* under
        current latencies: the one task pricer.  *costs* is a map or kv
        plan or a :class:`_Costs` -- one worker per entry, or column
        costs broadcast to a (records, workers) matrix.

        Each entry is ``compute + stall`` of :meth:`_task_parts`, in the
        per-element operation order of the scalar pricer kept in
        ``tests/sim/kv_oracle.py``, so it is bit-identical to it."""
        compute, stall = self._task_parts(costs, workers)
        return compute + stall

    def _task_parts(
        self, costs, workers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(compute, memory stall) seconds of *costs*' tasks on
        *workers*' cores under current latencies (see
        :meth:`_task_durations`)."""
        core = self.platform.core_params
        nodes = self._worker_nodes[workers]
        compute = (costs.instructions / core.ipc) / self._worker_freqs[workers]
        stall = (
            costs.l2 * self.memory.l2_round_trip_all_s()[nodes]
            + costs.mem * self.memory.memory_extra_all_s()[nodes]
        ) / core.mlp_overlap
        return compute, stall

    def _fail_times(self) -> np.ndarray:
        """Per-worker failure instants (``inf`` = survives, as on clean runs)."""
        if self.faults is not None:
            return self.faults.fail_time
        return np.full(self.platform.num_cores, np.inf)

    def _schedule_map(
        self, start: float, durations: np.ndarray, plan: _MapPlan
    ) -> Tuple[List[_ScheduledTask], float, TaskQueueSet, _Recovery]:
        """Map scheduling with stealing: one ``(time, worker)`` heap loop.

        ``durations[i, w]`` is the runtime of record row ``i`` on worker
        ``w`` under the current latency estimate.  Each pop asks the
        queue set for the worker's next task (own queue first, then a
        steal); a worker dead at its pop, or handed ``None`` (capped out
        or nothing to steal), retires.  A worker killed mid-execution
        burns the interval up to its failure (noted in the returned
        recovery) and its task goes back to its own queue head, where
        survivors steal it from the tail.  The heap pops in event order
        (lowest worker on ties), which is the schedule order the energy
        fold relies on.  Returns the queue set as well so the caller can
        fold its stealing statistics for the committed schedule only.
        """
        num_workers = self.platform.num_cores
        queues = TaskQueueSet(num_workers, plan.policy)
        queues.refill(plan.homes)
        fail_time = self._fail_times()
        fail_at = fail_time.tolist()
        records = plan.records
        recovery = _Recovery()
        # Sorted, so already a heap.
        heap = [(start, worker) for worker in range(num_workers)]
        schedule: List[_ScheduledTask] = []
        end = start
        while heap and queues.remaining > 0:
            now, worker = heapq.heappop(heap)
            fail = fail_at[worker]
            if fail <= now:
                continue  # dead at its pop: never asks for work again
            task = queues.next_task(worker)
            if task is None:
                continue  # capped out or nothing to steal
            record = records[task.payload]
            duration = durations.item(task.payload, worker)
            if now + duration > fail:
                # Killed mid-execution: the burnt interval is lost and
                # the task goes back to the worker's own queue head.
                recovery.lost.append((worker, now, fail - now, record.task_id))
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
            # task was requeued: run leftovers on the fastest survivor.
            alive = np.isinf(fail_time)
            if not alive.any():
                raise FaultInjectionError(
                    "all workers fail before the map phase drains"
                )
            masked = np.where(alive, self._worker_freqs, -np.inf)
            fastest = int(np.argmax(masked))
            now = end
            for worker, task in queues.force_drain(fastest):
                record = records[task.payload]
                duration = durations.item(task.payload, worker)
                schedule.append(_ScheduledTask(record, worker, now, duration))
                now += duration
            end = now
        return schedule, end, queues, recovery

    def _run_barrier(
        self,
        phase: Phase,
        records: Sequence[TaskRecord],
        start: float,
        busy: np.ndarray,
        phases: List[PhaseStats],
        iteration: int,
    ) -> float:
        """One reduce or merge-stage barrier phase, relaxed and committed.

        An empty merge stage takes no time and leaves no trace; a reduce
        phase always runs (its relaxation refreshes the latencies the
        next phase starts from)."""
        if phase is Phase.MERGE and not records:
            return start
        plan = self._kv_plan(records)
        schedule, end, recovery = self._relax_phase(
            lambda: self._schedule_parallel(records, start, plan),
            start,
            plan,
        )
        for item in schedule:
            busy[item.worker] += item.duration_s
        self._fold_phase_energy(
            [item.worker for item in schedule],
            plan.instructions, plan.l2, plan.mem, plan,
        )
        self._fold_recovery(recovery, busy)
        phases.append(PhaseStats(phase, iteration, start, end))
        if self.tracer.enabled:
            self._trace_phase(phases[-1])
            self._trace_tasks(schedule, phase)
            self.platform.network.sample_channel_occupancy(start)
        return end

    def _schedule_parallel(
        self,
        records: Sequence[TaskRecord],
        start: float,
        plan: _KvPlan,
    ) -> Tuple[List[_ScheduledTask], float, _Recovery]:
        """One task per owning worker, all starting at the barrier.

        Every task is priced on its home worker in one kernel pass
        (:meth:`_kv_durations`).  Under fault injection, a task whose
        home worker is dead at the barrier, or dies before the task
        finishes, runs its substitution chain instead
        (:meth:`_execute_with_substitution`), pricing each step with the
        same kernel on a one-record plan (:meth:`_single_duration`)."""
        durations = self._kv_durations(plan, plan.home)
        ends = start + durations
        schedule = [
            _ScheduledTask(record, record.home_worker, start, float(durations[i]))
            for i, record in enumerate(records)
        ]
        recovery = _Recovery()
        fail = self._fail_times()[plan.home]
        for i in np.flatnonzero((fail <= start) | (ends > fail)):
            item, item_recovery = self._execute_with_substitution(
                records[i],
                start,
                lambda w: self._single_duration(plan, records, i, w),
            )
            recovery.merge(item_recovery)
            schedule[i] = item
            ends[i] = item.end_s
        return schedule, float(np.max(ends, initial=start)), recovery

    def _single_duration(
        self,
        plan: _KvPlan,
        records: Sequence[TaskRecord],
        row: int,
        worker: int,
    ) -> float:
        """Duration of the phase's record *row* run on *worker*.

        It is priced on a one-record plan built once per phase and kept
        in ``plan.singles`` per (row, worker), so each step of a faulted
        task's substitution chain keeps its pricing view across
        relaxation rounds; the view is still checked on every use
        (:meth:`_KvPlan.pull_times`)."""
        one = plan.singles.get((row, worker))
        if one is None:
            one = plan.singles[row, worker] = self._kv_plan([records[row]])
        return float(self._kv_durations(one, np.array([worker]))[0])

    def _kv_plan(self, records: Sequence[TaskRecord]) -> _KvPlan:
        """Build the phase-invariant :class:`_KvPlan` for *records*."""
        count = len(records)
        home = np.fromiter(
            (r.home_worker for r in records), dtype=np.int64, count=count
        )
        instructions = np.array([r.cost.instructions for r in records])
        l2 = np.array([r.cost.l2_accesses for r in records])
        mem = np.array([r.cost.memory_accesses for r in records])
        sources = [self._kv_sources(record) for record in records]
        counts = np.fromiter(map(len, sources), dtype=np.int64, count=count)
        bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        flat = [source for per_record in sources for source in per_record]
        src_workers = np.fromiter(
            (worker for worker, _ in flat), dtype=np.int64, count=len(flat)
        )
        nbytes = np.fromiter(
            (volume for _, volume in flat), dtype=float, count=len(flat)
        )
        bits = kv_stream_bits(nbytes, self.params.kv_chunk_bytes)
        return _KvPlan(
            home=home,
            instructions=instructions,
            l2=l2,
            mem=mem,
            kv_rec=np.repeat(np.arange(count, dtype=np.int64), counts),
            kv_src=self._worker_nodes[src_workers],
            kv_slot=np.arange(len(flat), dtype=np.int64)
            - np.repeat(bounds[:-1], counts),
            kv_bits=bits,
            kv_minbits=np.minimum(bits, float(self._kv_chunk_bits)),
            kv_bounds=bounds,
            width=int(counts.max()) if count else 0,
        )

    def _kv_durations(self, plan: _KvPlan, workers: np.ndarray) -> np.ndarray:
        """Durations of the plan's rows run on *workers* (one per row).

        The one pricing kernel of barrier phases, bit-equal to the
        scalar task pricer plus the scalar per-source pull loop (both
        kept in ``tests/sim/kv_oracle.py``) by construction:

        * compute/stall come from :meth:`_task_durations`, which mirrors
          the scalar pricer's operation order exactly;
        * the per-source pull terms come from the plan's pricing view
          (:class:`_KvPricing`) toward *workers*' nodes: each source's
          head serialization divides in the latency table's own dtype
          (kept from the view's first round, since it does not depend
          on load), and effective capacity is gathered at exactly the
          priced (src, dst) pairs, never as a full matrix;
        * per-record source sums run through one zero-padded
          ``np.add.accumulate`` (sequential float64 recurrence == the
          scalar ``total += term`` loop; trailing zero pads are exact
          no-ops for the non-negative terms).
        """
        task_time = self._task_durations(plan, workers)
        if not len(plan.kv_rec):
            return task_time + 0.0
        dst = self._worker_nodes[workers][plan.kv_rec]
        pad = np.zeros((len(workers), plan.width))
        pad[plan.kv_rec, plan.kv_slot] = plan.pull_times(self.memory, dst)
        return task_time + np.add.accumulate(pad, axis=1)[:, -1]

    def _execute_with_substitution(
        self,
        record: TaskRecord,
        start: float,
        price: Callable[[int], float],
    ) -> Tuple[_ScheduledTask, _Recovery]:
        """Run one barrier-phase task to completion despite core failures.

        ``price(worker)`` is the task's duration on *worker*.  The
        execution chain is deterministic: a dead home worker is replaced
        by the next survivor on the worker ring; an execution the
        worker's failure would cut short burns the interval up to the
        failure (recorded as lost busy time) and re-executes on the next
        substitute.  Each worker dies at most once, so the chain
        terminates; a run with no survivors raises
        :class:`FaultInjectionError`."""
        faults = self.faults
        fail_time = self._fail_times()
        recovery = _Recovery()
        worker = record.home_worker
        t = start
        while True:
            if fail_time[worker] <= t:
                substitute = faults.substitute_for(worker, t)
                if substitute is None:
                    raise FaultInjectionError(
                        f"no surviving worker to run task "
                        f"{record.task_id} at t={t:.6f}s"
                    )
                worker = substitute
                recovery.substitutions += 1
            duration = price(worker)
            fail = float(fail_time[worker])
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

    def _fold_recovery(self, recovery: _Recovery, busy: np.ndarray) -> None:
        """Charge a committed phase's lost intervals as busy time and fold
        the counts into the fault engine's impact record."""
        if self.faults is None:
            return
        for worker, _start_s, duration_s, _task_id in recovery.lost:
            busy[worker] += duration_s
        self.faults.note_recovery(
            recovery.reexecutions, recovery.substitutions, recovery.lost
        )

    def _kv_sources(self, record: TaskRecord) -> List[Tuple[int, float]]:
        """(source worker, bytes) pairs this task pulls over the NoC."""
        sources: List[Tuple[int, float]] = []
        for src, nbytes in record.input_bytes_by_worker.items():
            if src != record.home_worker and nbytes > 0:
                sources.append((src, nbytes))
        if record.partner_worker is not None and record.cost.kv_bytes_in > 0:
            if record.partner_worker != record.home_worker:
                sources.append((record.partner_worker, record.cost.kv_bytes_in))
        return sources

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def _trace_phase(self, stats: PhaseStats) -> None:
        """One span per phase instance on the platform's ``phases`` track."""
        self.tracer.span(
            stats.phase.value,
            stats.start_s,
            stats.duration_s,
            cat="sim.phase",
            pid=self.platform.name,
            tid="phases",
            iteration=stats.iteration,
        )

    def _trace_tasks(
        self, schedule: Sequence[_ScheduledTask], phase: Phase
    ) -> None:
        """Per-task execution spans, one track per worker.

        A task's span covers its busy interval on the core; args split it
        into compute, memory stall and (for kv phases) remote pull time,
        so per-core busy/stall timelines fall out of the trace directly.
        """
        tracer = self.tracer
        pid = self.platform.name
        computes, stalls = self._task_parts(
            _Costs.of([item.record for item in schedule]),
            np.array([item.worker for item in schedule], dtype=np.intp),
        )
        for item, compute, stall in zip(
            schedule, computes.tolist(), stalls.tolist()
        ):
            kv_pull = max(item.duration_s - compute - stall, 0.0)
            tracer.span(
                f"{phase.value}:{item.record.task_id}",
                item.start_s,
                item.duration_s,
                cat="sim.task",
                pid=pid,
                tid=item.worker,
                phase=phase.value,
                task_id=item.record.task_id,
                compute_s=compute,
                stall_s=stall,
                kv_pull_s=kv_pull,
            )
            tracer.counter_add("sim.busy_s", item.duration_s, key=f"{pid}/w{item.worker}")
            tracer.counter_add("sim.stall_s", stall, key=f"{pid}/w{item.worker}")

    # ------------------------------------------------------------------ #
    # flows and energy
    # ------------------------------------------------------------------ #

    def _register_phase_flows(
        self,
        schedule: Sequence[_ScheduledTask],
        phase_duration: float,
        plan: Optional[_KvPlan],
    ) -> None:
        """Convert a phase schedule into sustained flows on the NoC.

        Miss traffic is registered with one batched mat-vec over every
        node's accumulated access rate (``np.bincount`` over the
        executing nodes adds in schedule order); a barrier phase's
        *plan* adds its key-value streams, into each task's executing
        node, through the plan's flow view (:meth:`_KvPlan.register_flows`).
        """
        network = self.platform.network
        network.reset_flows()
        nodes = self._worker_nodes[[item.worker for item in schedule]]
        l2 = [item.record.cost.l2_accesses for item in schedule]
        accesses_per_node = np.bincount(
            nodes, weights=l2, minlength=self.platform.num_cores
        )
        self.memory.add_miss_flows_batch(accesses_per_node / phase_duration)
        if plan is not None and len(plan.kv_rec):
            plan.register_flows(
                network, nodes[plan.kv_rec], plan.kv_bits / phase_duration
            )

    def _fold_phase_energy(
        self,
        workers: Sequence[int],
        instructions,
        l2,
        mem,
        plan: Optional[_KvPlan] = None,
    ) -> None:
        """Fold a committed phase's work and NoC energy counters.

        Each task charges its executing worker: the committed
        instructions fold with one ``np.add.at`` (element order ==
        schedule order), and the miss traffic and -- for a barrier
        phase's *plan* -- key-value transfers fold into the four
        :class:`repro.noc.energy.NocEnergyModel` counters with one
        ordered accumulate per counter
        (:meth:`~repro.noc.energy.NocEnergyModel.fold`).  Both kinds
        feed the same counters, so their increments stay *interleaved
        per record* -- each task's miss increment, then its transfers --
        the order a per-call loop adds them in
        (``tests/sim/energy_oracle.py``).  With a tracer enabled the
        per-record flit counters follow, in that same order.
        """
        workers = np.asarray(workers, dtype=np.intp)
        np.add.at(self._committed, workers, instructions)
        nodes = self._worker_nodes[workers]
        memory = self.memory
        miss = memory.miss_increments(nodes, l2, mem)
        network = memory.pairwise.model
        if plan is None or not len(plan.kv_rec):
            network.energy.fold(*miss, python_bits=plan is None)
            if network._tracer.enabled:
                memory.count_miss_flits(miss[2], miss[3])
            return
        bounds = plan.kv_bounds
        dst = nodes[plan.kv_rec]
        bulk = self._bulk_energy.increments(plan.kv_src, dst, plan.kv_bits)
        count = len(workers) + len(plan.kv_rec)
        miss_at = np.arange(len(workers)) + bounds[:-1]
        bulk_at = np.arange(len(plan.kv_rec)) + plan.kv_rec + 1
        interleaved = []
        for per_record, per_transfer in zip(miss, bulk):
            merged = np.empty(count)
            merged[miss_at] = per_record
            merged[bulk_at] = per_transfer
            interleaved.append(merged)
        network.energy.fold(*interleaved)
        if network._tracer.enabled:
            starts, ends = bounds[:-1].tolist(), bounds[1:].tolist()
            for i, (lo, hi) in enumerate(zip(starts, ends)):
                memory.count_miss_flits(miss[2][i:i + 1], miss[3][i:i + 1])
                self._bulk_energy.count_flits(
                    plan.kv_src[lo:hi], dst[lo:hi], plan.kv_bits[lo:hi]
                )

    # ------------------------------------------------------------------ #

    def _finalize(
        self,
        trace: JobTrace,
        total_time: float,
        busy: np.ndarray,
        phases: List[PhaseStats],
    ) -> SimulationResult:
        """Close the last energy segment and fold the run's energy.

        Each platform configuration the run passed through (throttles,
        degraded fabrics, governor cap assignments, a V/F schedule's
        views) is one segment charged at its own V/F and with its own
        network's accumulated dynamic energy; a clean run is a single
        segment.  Lost (killed)
        intervals were folded into ``busy``, so wasted dynamic energy is
        charged; dead cores keep burning idle and leakage power (a
        functional failure is not a power-gated core).  The result
        reports the *base* platform's name and frequencies so downstream
        normalization compares degraded runs against their clean
        counterparts.
        """
        if self.governor is not None:
            self.governor.finish(total_time)
        self._close_segment(total_time)
        base = self._base_platform
        breakdown, stats = _fold_segments(self._segments)
        return SimulationResult(
            app_name=trace.app_name,
            platform_name=base.name,
            total_time_s=total_time,
            busy_s=busy,
            committed_instructions=self._committed.copy(),
            worker_frequencies_hz=np.array(base.effective_worker_frequencies()),
            issue_width=base.core_params.issue_width,
            phases=phases,
            energy=breakdown,
            network=stats,
            faults=self.faults.impact() if self.faults is not None else None,
            power=self.governor.impact() if self.governor is not None else None,
        )


def _fold_segments(
    segments: Sequence[_Segment],
) -> Tuple[EnergyBreakdown, NetworkStats]:
    """Core and NoC energy of a run made of *segments* (static, faulted,
    capped and phase-adaptive runs alike): each core is charged at its
    segment's V/F -- busy time at full activity, the rest at idle
    activity, leakage throughout -- and NoC counters add up."""
    breakdown = EnergyBreakdown()
    bits = hops_bits = wireless = dynamic = static = 0.0
    for segment in segments:
        platform = segment.platform
        elapsed = segment.elapsed_s
        for worker in range(platform.num_cores):
            power = platform.core_power_of(platform.island_of_worker(worker))
            point = platform.vf_of_worker(worker)
            busy_s = float(min(segment.busy_s[worker], elapsed))
            idle_s = max(elapsed - busy_s, 0.0)
            breakdown.core_dynamic_j += (
                power.dynamic_power_w(point, 1.0) * busy_s
                + power.dynamic_power_w(point, power.params.idle_activity)
                * idle_s
            )
            breakdown.core_static_j += (
                power.leakage_power_w(point) * elapsed
            )
        dynamic += segment.noc_dynamic_j
        static += segment.noc_static_j
        bits += segment.bits_moved
        hops_bits += segment.bit_hops
        wireless += segment.wireless_bits
    breakdown.noc_dynamic_j = dynamic
    breakdown.noc_static_j = static
    stats = NetworkStats(
        bits_moved=bits,
        average_hops=hops_bits / bits if bits else 0.0,
        wireless_fraction=wireless / bits if bits else 0.0,
        dynamic_energy_j=dynamic,
        static_energy_j=static,
    )
    return breakdown, stats


def simulate(
    platform: Platform,
    trace: JobTrace,
    locality: float = 0.0,
    stealing_policy: Optional[StealingPolicy] = None,
    params: SimulationParams = SimulationParams(),
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run *trace*."""
    simulator = SystemSimulator(
        platform, locality=locality, stealing_policy=stealing_policy, params=params
    )
    return simulator.run(trace)
