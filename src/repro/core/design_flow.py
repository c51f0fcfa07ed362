"""The VFI design flow of paper Fig. 3.

    characterize on NVFI  ->  VFI clustering (Eq. 1)  ->  V/F assignment
    (VFI 1)  ->  bottleneck detection + V/F reassignment and task-stealing
    modification (VFI 2)

:func:`design_vfi` takes the NVFI characterization (utilization profile +
traffic matrix, typically from an NVFI-mesh simulation of the app's
trace) and produces a :class:`VfiDesign` carrying both V/F systems, the
clustering, and the Eq. (3) stealing policy factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mapreduce.scheduler import CappedStealingPolicy
from repro.mapreduce.trace import JobTrace
from repro.telemetry import get_tracer
from repro.utils.rng import SeedLike
from repro.vfi.bottleneck import BottleneckReport, detect_bottlenecks
from repro.vfi.clustering import (
    ClusteringProblem,
    ClusteringResult,
    solve_simulated_annealing,
)
from repro.vfi.islands import DVFS_LADDER, VfPoint
from repro.vfi.vf_assign import VfAssignment, assign_vf, reassign_for_bottlenecks


@dataclass
class VfiDesign:
    """Output of the design flow for one application."""

    num_islands: int
    clustering: ClusteringResult
    vfi1: VfAssignment
    vfi2: VfAssignment
    bottleneck: BottleneckReport
    utilization: np.ndarray
    traffic: np.ndarray

    @property
    def worker_clusters(self) -> Tuple[int, ...]:
        """Island id per worker."""
        return self.clustering.assignment

    @property
    def was_reassigned(self) -> bool:
        """Did the Sec. 4.2 rule raise any island's V/F (VFI2 != VFI1)?"""
        return bool(self.vfi2.reassigned_islands)

    def worker_frequencies(self, system: str = "vfi2") -> List[float]:
        """Per-worker core frequency under ``"vfi1"`` or ``"vfi2"``."""
        assignment = self.assignment(system)
        return [
            assignment.points[cluster].frequency_hz
            for cluster in self.worker_clusters
        ]

    def stealing_policy(self, system: str = "vfi2") -> CappedStealingPolicy:
        """The paper's Eq. (3)-capped stealing policy for this design."""
        return CappedStealingPolicy(self.worker_frequencies(system))

    def assignment(self, system: str) -> VfAssignment:
        """The V/F assignment of ``"vfi1"`` or ``"vfi2"``."""
        if system == "vfi1":
            return self.vfi1
        if system == "vfi2":
            return self.vfi2
        raise ValueError(f"unknown system {system!r}; use 'vfi1' or 'vfi2'")


def structural_bottleneck_workers(
    trace: JobTrace, final_merge_stages: int = 0
) -> set:
    """Workers that are bottleneck cores *by construction* (Sec. 4.2).

    The paper attributes bottleneck cores to the master's library
    initialization (and the Merge funnel the master core anchors); the
    master is the lib-init home worker.  ``final_merge_stages`` optionally
    widens the set with the home workers of the last merge stages --
    useful for diagnostics, but note that heterogeneous apps can have
    data-hot cores that coincide with funnel roots by scheduling luck, so
    the default confirmation set is the master alone.
    """
    if final_merge_stages < 0:
        raise ValueError(
            f"final_merge_stages must be >= 0, got {final_merge_stages}"
        )
    workers = set()
    for iteration in trace.iterations:
        workers.add(iteration.lib_init.home_worker)
        if final_merge_stages > 0:
            for stage in iteration.merge_stages[-final_merge_stages:]:
                for record in stage.tasks:
                    workers.add(record.home_worker)
    return workers


def design_vfi(
    utilization: Sequence[float],
    traffic: np.ndarray,
    num_islands: int = 4,
    clustering_iterations: int = 4000,
    seed: SeedLike = None,
    structural_workers: Optional[set] = None,
    ladder: Sequence[VfPoint] = DVFS_LADDER,
) -> VfiDesign:
    """Run the full Fig. 3 flow from an NVFI characterization.

    Parameters
    ----------
    utilization:
        Per-worker busy fraction measured on the non-VFI system.
    traffic:
        Worker-to-worker traffic matrix (``f_ip`` of Eq. 1).
    num_islands:
        Number of equal-size VFIs (four 4x4 islands in the paper).
    structural_workers:
        Workers that are serial bottlenecks by construction (master +
        merge funnel roots; see :func:`structural_bottleneck_workers`).
        When provided, reassignment only triggers if the statistically
        detected hot cores include a structural one -- this is the
        paper's distinction between true bottleneck cores (PCA/HIST/MM)
        and data-driven hot cores that the clustering already placed in
        fast islands (Kmeans/WC).
    ladder:
        DVFS ladder to assign from (the paper's 65 nm ladder by default;
        the technology axis passes the target node's derived ladder).
    """
    utilization = np.asarray(utilization, dtype=float)
    tracer = get_tracer()
    problem = ClusteringProblem(
        traffic=traffic, utilization=utilization, num_clusters=num_islands
    )
    with tracer.wall_span(
        "vfi.clustering", cat="vfi", pid="design-flow",
        iterations=clustering_iterations,
    ):
        clustering = solve_simulated_annealing(
            problem, iterations=clustering_iterations, seed=seed
        )
    with tracer.wall_span("vfi.vf_assign", cat="vfi", pid="design-flow"):
        vfi1 = assign_vf(
            utilization, clustering.assignment, num_islands, ladder=ladder
        )
    with tracer.wall_span("vfi.bottleneck", cat="vfi", pid="design-flow"):
        report = detect_bottlenecks(utilization)
    # Candidates are sorted by descending utilization; the decisive test
    # is whether the *hottest* core is a structural bottleneck (master /
    # funnel root) rather than a data-hot map worker.
    structurally_confirmed = structural_workers is None or bool(
        report.bottleneck_workers
        and report.bottleneck_workers[0] in structural_workers
    )
    if structurally_confirmed:
        with tracer.wall_span("vfi.reassign", cat="vfi", pid="design-flow"):
            vfi2 = reassign_for_bottlenecks(
                vfi1, utilization, clustering.assignment, report, ladder=ladder
            )
    else:
        vfi2 = vfi1
    return VfiDesign(
        num_islands=num_islands,
        clustering=clustering,
        vfi1=vfi1,
        vfi2=vfi2,
        bottleneck=report,
        utilization=utilization,
        traffic=np.asarray(traffic, dtype=float),
    )
