"""V/F assignment and the VFI-2 reassignment."""

import numpy as np
import pytest

from repro.vfi.bottleneck import BottleneckReport
from repro.vfi.islands import DVFS_LADDER, NOMINAL
from repro.vfi.vf_assign import (
    VfAssignment,
    assign_vf,
    island_utilizations,
    reassign_for_bottlenecks,
    vf_table_row,
)

ASSIGNMENT = np.repeat([0, 1, 2, 3], 16)


def profile(island_means):
    return np.repeat(island_means, 16).astype(float)


class TestIslandUtilizations:
    def test_means(self):
        utilization = profile([0.8, 0.6, 0.4, 0.2])
        means = island_utilizations(utilization, ASSIGNMENT, 4)
        assert np.allclose(means, [0.8, 0.6, 0.4, 0.2])

    def test_empty_island_rejected(self):
        with pytest.raises(ValueError):
            island_utilizations(np.ones(4), [0, 0, 1, 1], 3)


class TestAssignVf:
    def test_hot_island_keeps_nominal(self):
        vf = assign_vf(profile([0.85, 0.8, 0.78, 0.8]), ASSIGNMENT, 4)
        assert vf.points[0] == NOMINAL

    def test_monotone_in_utilization(self):
        vf = assign_vf(profile([0.8, 0.5, 0.3, 0.15]), ASSIGNMENT, 4)
        freqs = vf.frequencies_hz()
        assert freqs == sorted(freqs, reverse=True)

    def test_kmeans_like_spread(self):
        # Strongly heterogeneous profile spreads down the ladder.
        vf = assign_vf(profile([0.45, 0.3, 0.18, 0.12]), ASSIGNMENT, 4)
        volts = vf.voltages_v()
        assert max(volts) >= 0.8
        assert min(volts) <= 0.7

    def test_homogeneous_lands_uniform(self):
        vf = assign_vf(profile([0.58, 0.57, 0.57, 0.56]), ASSIGNMENT, 4)
        assert len(set(vf.labels())) == 1

    def test_points_on_ladder(self):
        vf = assign_vf(profile([0.7, 0.5, 0.33, 0.2]), ASSIGNMENT, 4)
        for point in vf.points:
            assert point in DVFS_LADDER

    def test_idle_island_gets_lowest_point(self):
        # An island whose cores never ran has mean utilization 0; it
        # takes the ladder's lowest point instead of asking the ladder
        # for 0 Hz, and the busy islands keep the points they get when
        # island 2 is busy too (u_ref is the same).
        idle = assign_vf(profile([0.6, 0.45, 0.0, 0.3]), ASSIGNMENT, 4)
        busy = assign_vf(profile([0.6, 0.45, 0.3, 0.3]), ASSIGNMENT, 4)
        assert idle.points[2] == DVFS_LADDER[0]
        assert idle.island_utilization[2] == 0.0
        for island in (0, 1, 3):
            assert idle.points[island] == busy.points[island]
        shorter = DVFS_LADDER[2:]
        vf = assign_vf(
            profile([0.6, 0.45, 0.0, 0.3]), ASSIGNMENT, 4, ladder=shorter
        )
        assert vf.points[2] == shorter[0]

    def test_all_idle_islands_get_lowest_point(self):
        vf = assign_vf(np.zeros(64), ASSIGNMENT, 4)
        assert vf.points == (DVFS_LADDER[0],) * 4

    def test_u_full_validation(self):
        with pytest.raises(ValueError):
            assign_vf(profile([0.5] * 4), ASSIGNMENT, 4, u_full=1.5)


class TestReassignment:
    def make_initial(self):
        return assign_vf(profile([0.58, 0.57, 0.57, 0.56]), ASSIGNMENT, 4)

    def test_bumps_bottleneck_island_one_step(self):
        initial = self.make_initial()
        utilization = profile([0.58, 0.57, 0.57, 0.56])
        utilization[0] = 0.95  # master core in island 0
        final = reassign_for_bottlenecks(initial, utilization, ASSIGNMENT)
        assert final.reassigned_islands == (0,)
        idx0 = DVFS_LADDER.index(initial.points[0])
        assert final.points[0] == DVFS_LADDER[idx0 + 1]
        # other islands untouched
        assert final.points[1:] == initial.points[1:]

    def test_no_bottleneck_no_change(self):
        initial = self.make_initial()
        utilization = profile([0.58, 0.57, 0.57, 0.56])
        final = reassign_for_bottlenecks(initial, utilization, ASSIGNMENT)
        assert final is initial

    def test_heterogeneous_profile_skipped(self):
        initial = assign_vf(profile([0.8, 0.55, 0.3, 0.15]), ASSIGNMENT, 4)
        utilization = np.linspace(0.95, 0.05, 64)  # smooth continuum
        final = reassign_for_bottlenecks(initial, utilization, np.argsort(np.argsort(-utilization)) // 16)
        assert final.reassigned_islands == ()

    def test_explicit_report(self):
        initial = self.make_initial()
        report = BottleneckReport(
            bottleneck_workers=[5],
            average_utilization=0.5,
            bottleneck_utilization=0.9,
            body_cv=0.05,
        )
        final = reassign_for_bottlenecks(
            initial, profile([0.58, 0.57, 0.57, 0.56]), ASSIGNMENT, report
        )
        assert final.reassigned_islands == (0,)  # worker 5 is in island 0

    def test_nominal_island_cannot_rise(self):
        initial = VfAssignment(
            points=(NOMINAL, NOMINAL, NOMINAL, NOMINAL),
            island_utilization=(0.9, 0.9, 0.9, 0.9),
        )
        report = BottleneckReport([0], 0.8, 0.99, 0.02)
        final = reassign_for_bottlenecks(
            initial, profile([0.9] * 4), ASSIGNMENT, report
        )
        assert final is initial


def test_vf_table_row():
    vf1 = assign_vf(profile([0.58, 0.57, 0.57, 0.56]), ASSIGNMENT, 4)
    u = profile([0.58, 0.57, 0.57, 0.56])
    u[0] = 0.95
    vf2 = reassign_for_bottlenecks(vf1, u, ASSIGNMENT)
    row = vf_table_row("PCA", vf1, vf2)
    assert row["application"] == "PCA"
    assert len(row["vfi1"]) == 4
    assert row["reassigned"] == [0]
