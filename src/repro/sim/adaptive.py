"""Phase-adaptive VFI: per-execution-stage V/F schedules.

The paper motivates VFIs with the observation that "the execution of
MapReduce on a multicore platform generates varying workload patterns
depending on the execution stages" (Sec. 1) but evaluates only *static*
per-application assignments.  This module implements the natural
extension: switch each island's V/F **per phase**.  Library
initialization runs on the master alone and the Merge funnel narrows to
it, so the canonical schedule (:func:`phase_adaptive_schedule`) parks
every non-master island at the DVFS floor for library init and for the
whole Merge -- the funnel's first stages, which still run on many
workers, included -- and restores the VFI 2 points for Map/Reduce,
paying a per-transition re-lock penalty.  It trades time for energy.
In the committed scale-1.0 table
(``benchmarks/results/extension_phase_adaptive.txt``, seed 7, 64
cores), execution time relative to NVFI goes from static VFI 2 to
adaptive as PCA 1.141 -> 1.154, HIST 1.088 -> 1.096, MM 1.087 -> 1.097
and WC 1.146 -> 1.162, and EDP relative to NVFI falls only for PCA
(0.859 -> 0.845) and MM (0.949 -> 0.948).

A schedule runs as a phase-boundary control of
:class:`repro.sim.system.SystemSimulator`: pass it as
``SimulationParams(vf_schedule=...)`` to :func:`repro.sim.simulate`.
Used by ``benchmarks/test_extension_phase_adaptive.py`` as an ablation
beyond the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.mapreduce.tasks import Phase
from repro.utils.validation import check_positive
from repro.vfi.islands import DVFS_LADDER, VfPoint

if TYPE_CHECKING:
    from repro.core.design_flow import VfiDesign
    from repro.sim.platform import Platform

#: The phases of one simulated iteration, in the order they run.
_RUN_PHASES = (Phase.LIB_INIT, Phase.MAP, Phase.REDUCE, Phase.MERGE)


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

    def views(self, platform: "Platform") -> Dict[Phase, "Platform"]:
        """The platform each simulated phase runs on.

        Phases with one assignment share one view: *platform* itself
        where the assignment is its own, else *platform* re-clocked
        (:meth:`Platform.with_vf`, same fabric and mapping) and named
        after the phases that run on it, e.g. ``"<name>@lib_init+merge"``.
        """
        phases_of: Dict[Tuple[VfPoint, ...], List[Phase]] = {}
        for phase in _RUN_PHASES:
            phases_of.setdefault(tuple(self.points_for(phase)), []).append(phase)
        views: Dict[Phase, "Platform"] = {}
        for points, phases in phases_of.items():
            view = platform
            if points != tuple(platform.vf_points):
                label = "+".join(phase.value for phase in phases)
                view = platform.with_vf(points, name=f"{platform.name}@{label}")
            views.update(dict.fromkeys(phases, view))
        return views


def phase_adaptive_schedule(
    design: "VfiDesign",
    serial_floor: VfPoint = DVFS_LADDER[0],
    master_worker: int = 0,
) -> VfSchedule:
    """Build the canonical phase-adaptive schedule from a VFI design.

    Map and Reduce keep the static VFI-2 assignment; during library init
    and the whole Merge every island except the master's drops to
    *serial_floor*, while the master's island keeps its VFI-2 point so
    the serial critical path is not slowed.  Merge is one phase here, so
    the funnel's first stages, which run on many workers, run on the
    parked islands too: the schedule is slower than static VFI 2 on
    every app of the committed table and lowers EDP only for PCA and MM
    (see the module docstring).
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
