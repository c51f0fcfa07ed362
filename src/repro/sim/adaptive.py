"""Phase-adaptive VFI: per-execution-stage V/F schedules.

The paper motivates VFIs with the observation that "the execution of
MapReduce on a multicore platform generates varying workload patterns
depending on the execution stages" (Sec. 1) but evaluates only *static*
per-application assignments.  This module implements the natural
extension: switch each island's V/F **per phase**.  The serial phases
(library initialization, the tail of the Merge funnel) leave most
islands idle -- a phase-adaptive schedule drops them to the DVFS floor
and restores them for Map/Reduce, paying a per-transition re-lock
penalty.

Used by ``benchmarks/test_extension_phase_adaptive.py`` as an ablation
beyond the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.design_flow import VfiDesign
from repro.mapreduce.tasks import Phase
from repro.mapreduce.trace import JobTrace
from repro.power.spec import normalize_cap
from repro.sim.config import SimulationParams
from repro.sim.platform import Platform
from repro.sim.stats import PhaseStats, SimulationResult
from repro.sim.system import SystemSimulator, _fold_segments, _Segment
from repro.mapreduce.scheduler import StealingPolicy
from repro.utils.validation import check_positive
from repro.vfi.islands import DVFS_LADDER, VfPoint


@dataclass(frozen=True)
class VfSchedule:
    """Per-phase island V/F assignment.

    ``points_for`` falls back to the MAP assignment for phases without an
    explicit entry, so a schedule only needs to name the exceptions.
    """

    phase_points: Dict[Phase, Tuple[VfPoint, ...]]
    #: Time to re-lock PLLs / settle voltage on a V/F transition.
    transition_s: float = 10e-6

    def __post_init__(self) -> None:
        if Phase.MAP not in self.phase_points:
            raise ValueError("schedule must define the MAP assignment")
        check_positive("transition_s", self.transition_s, allow_zero=True)

    def points_for(self, phase: Phase) -> Tuple[VfPoint, ...]:
        return self.phase_points.get(phase, self.phase_points[Phase.MAP])

    def distinct_assignments(self) -> List[Tuple[VfPoint, ...]]:
        seen: List[Tuple[VfPoint, ...]] = []
        for phase in Phase:
            points = self.points_for(phase)
            if points not in seen:
                seen.append(points)
        return seen


def phase_adaptive_schedule(
    design: VfiDesign,
    serial_floor: VfPoint = DVFS_LADDER[0],
    master_worker: int = 0,
) -> VfSchedule:
    """Build the canonical phase-adaptive schedule from a VFI design.

    Map and Reduce keep the static VFI-2 assignment; during library init
    and Merge every island except the master's drops to *serial_floor*
    (those cores are idle or nearly so), while the master's island keeps
    its VFI-2 point so the serial critical path is not slowed.
    """
    base = tuple(design.vfi2.points)
    master_island = design.worker_clusters[master_worker]
    serial = tuple(
        point if island == master_island else serial_floor
        for island, point in enumerate(base)
    )
    return VfSchedule(
        phase_points={
            Phase.MAP: base,
            Phase.REDUCE: base,
            Phase.LIB_INIT: serial,
            Phase.MERGE: serial,
        }
    )


class PhaseAdaptiveSimulator:
    """Simulates a trace under a per-phase V/F schedule.

    Internally builds one :class:`SystemSimulator` per distinct island
    assignment (same fabric, mapping and routing -- only clocks and
    voltages differ) and drives the right one for each phase, charging a
    transition penalty whenever consecutive phases use different
    assignments.  Busy time and energy are accounted per assignment, so
    idle islands parked at the floor V/F pay floor-level idle power.

    Fault plans and power caps are runtime controls applied at phase
    boundaries by :meth:`SystemSimulator.run`, which this simulator
    bypasses; a non-empty plan or a bounded cap in *params* raises
    :class:`ValueError` rather than being half applied.
    """

    def __init__(
        self,
        platform: Platform,
        schedule: VfSchedule,
        locality: float = 0.0,
        stealing_policy: Optional[StealingPolicy] = None,
        params: SimulationParams = SimulationParams(),
    ):
        if params.fault_plan is not None and len(params.fault_plan):
            raise ValueError(
                "PhaseAdaptiveSimulator does not apply fault plans"
            )
        if normalize_cap(params.power_cap) is not None:
            raise ValueError(
                "PhaseAdaptiveSimulator does not enforce power caps"
            )
        self.schedule = schedule
        self.base_platform = platform
        self._simulators: Dict[Tuple[VfPoint, ...], SystemSimulator] = {}
        for points in schedule.distinct_assignments():
            variant = platform.with_vf(list(points), name=f"{platform.name}@{id(points)}")
            self._simulators[points] = SystemSimulator(
                variant,
                locality=locality,
                stealing_policy=stealing_policy,
                params=params,
            )

    # ------------------------------------------------------------------ #

    def run(self, trace: JobTrace) -> SimulationResult:
        num_workers = self.base_platform.num_cores
        if trace.num_workers != num_workers:
            raise ValueError(
                f"trace has {trace.num_workers} workers, platform has {num_workers}"
            )
        phases: List[PhaseStats] = []
        busy_by_points: Dict[Tuple[VfPoint, ...], np.ndarray] = {
            points: np.zeros(num_workers) for points in self._simulators
        }
        elapsed_by_points: Dict[Tuple[VfPoint, ...], float] = {
            points: 0.0 for points in self._simulators
        }
        for sim in self._simulators.values():
            sim._committed = np.zeros(num_workers)

        now = 0.0
        transitions = 0
        previous_points: Optional[Tuple[VfPoint, ...]] = None

        def enter(phase: Phase) -> Tuple[Tuple[VfPoint, ...], SystemSimulator]:
            nonlocal now, transitions, previous_points
            points = self.schedule.points_for(phase)
            if previous_points is not None and points != previous_points:
                now += self.schedule.transition_s
                transitions += 1
            previous_points = points
            return points, self._simulators[points]

        for iteration in trace.iterations:
            # library init
            points, sim = enter(Phase.LIB_INIT)
            start = now
            now = sim._run_lib_init(
                iteration.lib_init, now, busy_by_points[points], phases,
                iteration.iteration,
            )
            elapsed_by_points[points] += now - start
            # map
            points, sim = enter(Phase.MAP)
            start = now
            now = sim._run_map(
                iteration.map_phase.tasks, now, busy_by_points[points], phases,
                iteration.iteration,
            )
            elapsed_by_points[points] += now - start
            # reduce
            points, sim = enter(Phase.REDUCE)
            start = now
            now = sim._run_barrier(
                Phase.REDUCE, iteration.reduce_phase.tasks, now,
                busy_by_points[points], phases, iteration.iteration,
            )
            elapsed_by_points[points] += now - start
            # merge stages
            if iteration.merge_stages:
                points, sim = enter(Phase.MERGE)
                start = now
                for stage in iteration.merge_stages:
                    now = sim._run_barrier(
                        Phase.MERGE, stage.tasks, now, busy_by_points[points],
                        phases, iteration.iteration,
                    )
                elapsed_by_points[points] += now - start

        total_time = now
        return self._finalize(
            trace, total_time, phases, busy_by_points, elapsed_by_points
        )

    # ------------------------------------------------------------------ #

    def _finalize(
        self,
        trace: JobTrace,
        total_time: float,
        phases: List[PhaseStats],
        busy_by_points: Dict[Tuple[VfPoint, ...], np.ndarray],
        elapsed_by_points: Dict[Tuple[VfPoint, ...], float],
    ) -> SimulationResult:
        num_workers = self.base_platform.num_cores
        total_busy = np.zeros(num_workers)
        committed = np.zeros(num_workers)
        segments = []
        for points, sim in self._simulators.items():
            busy = busy_by_points[points]
            total_busy += busy
            committed += sim._committed
            segments.append(
                _Segment.snapshot(sim.platform, elapsed_by_points[points], busy)
            )
        breakdown, stats = _fold_segments(segments)
        # Report utilization against the MAP assignment's frequencies (the
        # dominant phase), consistent with the static simulator.
        map_platform = self._simulators[
            self.schedule.points_for(Phase.MAP)
        ].platform
        return SimulationResult(
            app_name=trace.app_name,
            platform_name=f"{self.base_platform.name}+phase-adaptive",
            total_time_s=total_time,
            busy_s=total_busy,
            committed_instructions=committed,
            worker_frequencies_hz=np.array(map_platform.effective_worker_frequencies()),
            issue_width=map_platform.core_params.issue_width,
            phases=phases,
            energy=breakdown,
            network=stats,
        )
