"""FaultEngine unit behavior: validation, activation, degraded views,
the bottleneck shield, and substitute selection."""

import numpy as np
import pytest

from repro.core.platforms import build_nvfi_mesh, geometry_for
from repro.faults import (
    FaultEngine,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.vfi.islands import DVFS_LADDER


@pytest.fixture(scope="module")
def platform():
    return build_nvfi_mesh(geometry_for(16))


def plan_of(*events):
    return FaultPlan(events=tuple(events))


def failure(time_s, worker):
    return FaultSpec(FaultKind.CORE_FAILURE, time_s, (worker,))


class TestValidation:
    def test_rejects_out_of_range_worker(self, platform):
        with pytest.raises(ValueError, match="worker 16"):
            FaultEngine(platform, plan_of(failure(1.0, 16)))

    def test_rejects_out_of_range_island(self, platform):
        bad = FaultSpec(FaultKind.ISLAND_THROTTLE, 1.0, (99,), 1.0)
        with pytest.raises(ValueError, match="island 99"):
            FaultEngine(platform, plan_of(bad))

    def test_link_targets_checked_leniently(self, platform):
        # A link absent from this platform family constructs fine and is
        # skipped at activation instead.
        missing = FaultSpec(FaultKind.LINK_FAILURE, 1.0, (0, 15))
        engine = FaultEngine(platform, plan_of(missing))
        engine.activate_due(2.0)
        impact = engine.impact()
        assert impact.events_skipped == 1
        assert impact.events_applied == []


class TestActivation:
    def test_fail_time_armed_at_construction(self, platform):
        engine = FaultEngine(
            platform, plan_of(failure(3.0, 2), failure(1.0, 2))
        )
        # Before any activation: earliest failure wins, others are inf.
        assert engine.fail_time[2] == 1.0
        assert np.isinf(engine.fail_time[3])

    def test_events_activate_in_time_order(self, platform):
        engine = FaultEngine(
            platform, plan_of(failure(2.0, 1), failure(1.0, 0))
        )
        engine.activate_due(1.5)
        assert engine.impact().failed_workers == [0]
        engine.activate_due(2.5)
        assert engine.impact().failed_workers == [0, 1]

    def test_slowdowns_compound(self, platform):
        slow = lambda t: FaultSpec(FaultKind.CORE_SLOWDOWN, t, (5,), 2.0)
        engine = FaultEngine(platform, plan_of(slow(1.0), slow(2.0)))
        engine.activate_due(3.0)
        assert engine.slowdown[5] == 4.0
        assert engine.slowdown[4] == 1.0

    def test_dirty_flags(self, platform):
        engine = FaultEngine(platform, plan_of(failure(1.0, 0)))
        assert engine.activate_due(0.5) == (False, False)
        assert engine.activate_due(1.5) == (False, True)
        throttle = FaultSpec(FaultKind.ISLAND_THROTTLE, 1.0, (0,), 1.0)
        engine = FaultEngine(platform, plan_of(throttle))
        assert engine.activate_due(1.0) == (True, True)


class TestDegradedViews:
    def test_platform_unchanged_without_structural_faults(self, platform):
        engine = FaultEngine(platform, plan_of(failure(1.0, 0)))
        engine.activate_due(2.0)
        assert engine.effective_platform() is platform

    def test_link_failure_reroutes(self, platform):
        drop = FaultSpec(FaultKind.LINK_FAILURE, 1.0, (0, 1))
        engine = FaultEngine(platform, plan_of(drop))
        engine.activate_due(2.0)
        degraded = engine.effective_platform()
        assert degraded is not platform
        assert len(degraded.topology.links) == len(platform.topology.links) - 1
        assert degraded.fabric is not platform.fabric
        # Rerouted: 0 -> 1 now takes the long way but still connects.
        assert degraded.routing.hop_count(0, 1) > platform.routing.hop_count(0, 1)
        # The degraded platform is cached per link-set.
        assert engine.effective_platform() is degraded

    def test_disconnecting_failure_is_skipped(self, platform):
        # Sever every mesh edge incident to corner node 0 (side 4: east
        # neighbor 1, south neighbor 4): the first removal applies, the
        # second would cut node 0 off and is refused.
        events = (
            FaultSpec(FaultKind.LINK_FAILURE, 1.0, (0, 1)),
            FaultSpec(FaultKind.LINK_FAILURE, 2.0, (0, 4)),
        )
        engine = FaultEngine(platform, plan_of(*events))
        assert engine.activate_due(1.5) == (True, False)
        degraded = engine.effective_platform()
        assert engine.activate_due(2.5) == (False, False)
        assert engine.effective_platform() is degraded
        assert degraded.topology.is_connected()
        assert engine.removed_links == {frozenset((0, 1))}
        impact = engine.impact()
        assert impact.events_applied == [events[0].to_dict()]
        assert impact.events_skipped == 1

    def test_throttle_steps_down_the_ladder(self, platform):
        throttle = FaultSpec(FaultKind.ISLAND_THROTTLE, 1.0, (2,), 2.0)
        engine = FaultEngine(platform, plan_of(throttle))
        engine.activate_due(2.0)
        points = engine.effective_vf_points()
        base = platform.vf_points[2]
        base_index = DVFS_LADDER.index(base)
        assert points[2] == DVFS_LADDER[max(base_index - 2, 0)]
        assert points[0] == platform.vf_points[0]

    def test_throttle_clamps_at_ladder_bottom(self, platform):
        throttle = FaultSpec(FaultKind.ISLAND_THROTTLE, 1.0, (2,), 99.0)
        engine = FaultEngine(platform, plan_of(throttle))
        engine.activate_due(2.0)
        assert engine.effective_vf_points()[2] == DVFS_LADDER[0]


class TestBottleneckShield:
    def _engine(self, platform, master_worker):
        throttled = platform.island_of_worker(master_worker)
        throttle = FaultSpec(
            FaultKind.ISLAND_THROTTLE, 1.0, (throttled,), 1.0
        )
        engine = FaultEngine(platform, plan_of(throttle))
        engine.master_workers = {master_worker}
        engine.activate_due(2.0)
        return engine, throttled

    def test_shield_moves_throttle_off_master_island(self, platform):
        engine, throttled = self._engine(platform, master_worker=0)
        points = engine.effective_vf_points()
        # The master island keeps its base V/F ...
        assert points[throttled] == platform.vf_points[throttled]
        # ... and exactly one other island absorbed the step.
        stepped = [
            island
            for island, point in enumerate(points)
            if point != platform.vf_points[island]
        ]
        assert len(stepped) == 1 and stepped[0] != throttled
        assert engine.impact().bottleneck_reassignments == 1

    def test_shield_counted_once(self, platform):
        engine, _ = self._engine(platform, master_worker=0)
        engine.effective_vf_points()
        engine.effective_vf_points()
        assert engine.impact().bottleneck_reassignments == 1


class TestSubstitution:
    def test_ring_walks_past_dead_neighbors(self, platform):
        engine = FaultEngine(
            platform, plan_of(failure(1.0, 3), failure(1.0, 4))
        )
        engine.activate_due(2.0)
        assert engine.substitute_for(3, 2.0) == 5
        assert engine.substitute_for(15, 2.0) == 0

    def test_no_survivors_returns_none(self, platform):
        events = tuple(failure(1.0, w) for w in range(16))
        engine = FaultEngine(platform, plan_of(*events))
        engine.activate_due(2.0)
        assert engine.substitute_for(0, 2.0) is None
