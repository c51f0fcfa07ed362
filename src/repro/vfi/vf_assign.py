"""Per-island V/F assignment (VFI 1) and bottleneck reassignment (VFI 2).

The paper computes "V/F design parameters using a non-VFI system" (Fig. 3)
but does not give the closed form.  We use cube-root utilization scaling:

    f_island = nearest_ladder( fmax * (u_island / u_ref)^(1/3) )

with ``u_ref = max(largest island utilization, u_full)``: the hottest
island anchors the scale, so an application whose busiest cores run near
peak IPC keeps (near-)nominal frequency on the island that carries the
critical path -- this is what bounds the VFI execution-time penalty at
the ~10% the paper reports.  The cube root reflects that dynamic energy
scales ~ V^2 f ~ f^3, so equalizing the marginal energy-delay across
islands compresses the frequency spread relative to the utilization
spread.  This rule reproduces the structure of the paper's Table 2:
near-homogeneous apps (MM/HIST/PCA) land on 0.9-1.0 V islands, WC and
LR keep nominal-frequency islands for their hot clusters, and Kmeans
spreads down to 0.6 V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.vfi.bottleneck import BottleneckReport, detect_bottlenecks, needs_reassignment
from repro.vfi.islands import (
    DVFS_LADDER,
    NOMINAL,
    VfPoint,
    ladder_step_up,
    nearest_ladder_point,
)
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class VfAssignment:
    """V/F per island, with provenance."""

    points: Tuple[VfPoint, ...]
    island_utilization: Tuple[float, ...]
    reassigned_islands: Tuple[int, ...] = ()

    @property
    def num_islands(self) -> int:
        return len(self.points)

    @property
    def fmax_hz(self) -> float:
        return max(point.frequency_hz for point in self.points)

    def frequencies_hz(self) -> List[float]:
        return [point.frequency_hz for point in self.points]

    def voltages_v(self) -> List[float]:
        return [point.voltage_v for point in self.points]

    def labels(self) -> List[str]:
        return [point.label for point in self.points]


def island_utilizations(
    utilization: Sequence[float], assignment: Sequence[int], num_islands: int
) -> np.ndarray:
    """Mean utilization per island."""
    u = np.asarray(utilization, dtype=float)
    a = np.asarray(assignment, dtype=int)
    if len(u) != len(a):
        raise ValueError("utilization / assignment length mismatch")
    means = np.zeros(num_islands)
    for island in range(num_islands):
        mask = a == island
        if not mask.any():
            raise ValueError(f"island {island} has no workers")
        means[island] = u[mask].mean()
    return means


def assign_vf(
    utilization: Sequence[float],
    assignment: Sequence[int],
    num_islands: int,
    u_full: float = 0.75,
    ladder: Sequence[VfPoint] = DVFS_LADDER,
) -> VfAssignment:
    """Initial (VFI 1) per-island V/F from the NVFI utilization profile.

    ``u_full`` is the island utilization that warrants nominal frequency;
    islands above it stay at nominal, lower islands scale by the cube
    root of their relative utilization and snap to the DVFS *ladder*
    (the paper's 65 nm ladder by default; the tech axis passes a node's
    derived ladder, whose last point is that node's nominal).  An island
    whose cores are all idle (mean utilization 0) gets the ladder's
    lowest point, the limit of the rule as its utilization falls to 0.
    """
    check_in_range("u_full", u_full, 0.0, 1.0, inclusive=False)
    ladder = tuple(ladder)
    if not ladder:
        raise ValueError("ladder must be non-empty")
    nominal = ladder[-1]
    lowest = min(ladder, key=lambda point: point.frequency_hz)
    means = island_utilizations(utilization, assignment, num_islands)
    u_ref = max(float(means.max()), u_full)
    points = []
    for mean in means:
        ratio = (mean / u_ref) ** (1.0 / 3.0) if u_ref > 0 else 1.0
        target_hz = nominal.frequency_hz * min(ratio, 1.0)
        points.append(
            nearest_ladder_point(target_hz, ladder) if target_hz > 0 else lowest
        )
    return VfAssignment(
        points=tuple(points),
        island_utilization=tuple(float(m) for m in means),
    )


def reassign_for_bottlenecks(
    initial: VfAssignment,
    utilization: Sequence[float],
    assignment: Sequence[int],
    report: BottleneckReport = None,
    ladder: Sequence[VfPoint] = DVFS_LADDER,
) -> VfAssignment:
    """VFI 2: raise the V/F of islands hosting bottleneck cores.

    Returns *initial* unchanged when the Sec. 4.2 rule decides no
    reassignment is needed.  Only the island(s) containing bottleneck
    workers move (one ladder step up, saturating at nominal); worker
    placement is untouched "so that the traffic patterns remain
    unchanged".
    """
    if report is None:
        report = detect_bottlenecks(utilization)
    if not needs_reassignment(report):
        return initial
    a = np.asarray(assignment, dtype=int)
    affected = sorted({int(a[worker]) for worker in report.bottleneck_workers})
    points = list(initial.points)
    changed = []
    for island in affected:
        raised = ladder_step_up(points[island], ladder=ladder)
        if raised != points[island]:
            points[island] = raised
            changed.append(island)
    if not changed:
        return initial
    return VfAssignment(
        points=tuple(points),
        island_utilization=initial.island_utilization,
        reassigned_islands=tuple(changed),
    )


def vf_table_row(app_label: str, vfi1: VfAssignment, vfi2: VfAssignment) -> Dict:
    """One row of the paper's Table 2."""
    return {
        "application": app_label,
        "vfi1": vfi1.labels(),
        "vfi2": vfi2.labels(),
        "reassigned": list(vfi2.reassigned_islands),
    }
