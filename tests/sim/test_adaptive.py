"""Phase-adaptive VFI simulation."""

import hashlib
import json

import numpy as np
import pytest

from repro.apps import create_app
from repro.core.design_flow import design_vfi, structural_bottleneck_workers
from repro.core.platforms import build_nvfi_mesh, build_vfi_mesh, geometry_for
from repro.core.serialization import result_to_dict
from repro.core.traffic import total_node_traffic
from repro.faults import FaultPlan, preset_plan
from repro.mapreduce.tasks import Phase
from repro.power.spec import PowerCapSpec
from repro.sim.adaptive import (
    PhaseAdaptiveSimulator,
    VfSchedule,
    phase_adaptive_schedule,
)
from repro.sim.config import SimulationParams
from repro.sim.system import simulate
from repro.vfi.islands import DVFS_LADDER, NOMINAL

#: sha256 of ``result_to_dict`` for the 16-core histogram run below,
#: captured before the phase-adaptive energy fold moved onto the
#: simulator's segment fold.
SMALL_RUN_SHA256 = (
    "69d68c7bc46c13d37f3b2e6234e8d44eef2f9fa9f9a9ae6a336aff371bfee767"
)


@pytest.fixture(scope="module")
def setup():
    app = create_app("pca", scale=0.4, seed=21)
    trace = app.run(num_workers=64)
    nvfi = simulate(build_nvfi_mesh(), trace, locality=app.profile.l2_locality)
    design = design_vfi(
        nvfi.utilization,
        total_node_traffic(trace, app.profile.l2_locality),
        seed=3,
        structural_workers=structural_bottleneck_workers(trace),
    )
    platform = build_vfi_mesh(design, "vfi2", seed=3)
    return app, trace, design, platform, nvfi


class TestVfSchedule:
    def test_requires_map_entry(self):
        with pytest.raises(ValueError):
            VfSchedule(phase_points={Phase.MERGE: (NOMINAL,) * 4})

    def test_fallback_to_map(self):
        schedule = VfSchedule(phase_points={Phase.MAP: (NOMINAL,) * 4})
        assert schedule.points_for(Phase.REDUCE) == (NOMINAL,) * 4

    def test_distinct_assignments(self):
        serial = (DVFS_LADDER[0],) * 4
        schedule = VfSchedule(
            phase_points={Phase.MAP: (NOMINAL,) * 4, Phase.MERGE: serial}
        )
        assert len(schedule.distinct_assignments()) == 2

    def test_negative_transition_rejected(self):
        with pytest.raises(ValueError):
            VfSchedule(
                phase_points={Phase.MAP: (NOMINAL,) * 4}, transition_s=-1.0
            )


class TestScheduleBuilder:
    def test_master_island_keeps_its_point(self, setup):
        _, _, design, _, _ = setup
        schedule = phase_adaptive_schedule(design)
        master_island = design.worker_clusters[0]
        serial = schedule.points_for(Phase.LIB_INIT)
        assert serial[master_island] == design.vfi2.points[master_island]
        for island, point in enumerate(serial):
            if island != master_island:
                assert point == DVFS_LADDER[0]

    def test_map_uses_static_vfi2(self, setup):
        _, _, design, _, _ = setup
        schedule = phase_adaptive_schedule(design)
        assert schedule.points_for(Phase.MAP) == tuple(design.vfi2.points)


class TestPhaseAdaptiveSimulator:
    def test_sanity_and_energy_direction(self, setup):
        app, trace, design, platform, nvfi = setup
        static = simulate(
            build_vfi_mesh(design, "vfi2", seed=3),
            trace,
            locality=app.profile.l2_locality,
            stealing_policy=design.stealing_policy("vfi2"),
        )
        adaptive = PhaseAdaptiveSimulator(
            platform,
            phase_adaptive_schedule(design),
            locality=app.profile.l2_locality,
            stealing_policy=design.stealing_policy("vfi2"),
        ).run(trace)
        assert adaptive.total_time_s > 0
        assert adaptive.total_energy_j > 0
        # parking idle islands saves energy on a merge-heavy app
        assert adaptive.total_energy_j < static.total_energy_j
        # transitions cost a little time, never an order of magnitude
        assert adaptive.total_time_s < static.total_time_s * 1.1

    def test_identity_schedule_matches_static(self, setup):
        app, trace, design, platform, _ = setup
        schedule = VfSchedule(
            phase_points={Phase.MAP: tuple(design.vfi2.points)},
            transition_s=0.0,
        )
        adaptive = PhaseAdaptiveSimulator(
            platform,
            schedule,
            locality=app.profile.l2_locality,
            stealing_policy=design.stealing_policy("vfi2"),
        ).run(trace)
        static = simulate(
            build_vfi_mesh(design, "vfi2", seed=3),
            trace,
            locality=app.profile.l2_locality,
            stealing_policy=design.stealing_policy("vfi2"),
        )
        assert adaptive.total_time_s == pytest.approx(static.total_time_s, rel=1e-9)
        assert adaptive.total_energy_j == pytest.approx(
            static.total_energy_j, rel=1e-9
        )

    def test_phases_cover_walltime_minus_transitions(self, setup):
        app, trace, design, platform, _ = setup
        schedule = phase_adaptive_schedule(design)
        result = PhaseAdaptiveSimulator(
            platform, schedule, locality=app.profile.l2_locality
        ).run(trace)
        covered = sum(p.duration_s for p in result.phases)
        gap = result.total_time_s - covered
        assert gap >= 0
        # the gap is exactly the transition penalties (a whole multiple of
        # transition_s up to float noise, which can land on either side)
        assert gap == pytest.approx(
            round(gap / schedule.transition_s) * schedule.transition_s,
            abs=1e-9,
        )

    def test_worker_count_checked(self, setup):
        app, trace, design, platform, _ = setup
        small = create_app("pca", scale=0.4, seed=21).run(num_workers=32)
        simulator = PhaseAdaptiveSimulator(platform, phase_adaptive_schedule(design))
        with pytest.raises(ValueError):
            simulator.run(small)


@pytest.fixture(scope="module")
def small():
    app = create_app("histogram", scale=0.05, seed=9)
    trace = app.run(num_workers=16)
    locality = app.profile.l2_locality
    geometry = geometry_for(16)
    nvfi = simulate(build_nvfi_mesh(geometry), trace, locality=locality)
    design = design_vfi(
        nvfi.utilization,
        total_node_traffic(trace, locality),
        seed=3,
        structural_workers=structural_bottleneck_workers(trace),
    )
    platform = build_vfi_mesh(design, "vfi2", geometry=geometry, seed=3)
    return trace, locality, design, platform, nvfi


def _small_simulator(small, params=SimulationParams()):
    trace, locality, design, platform, _ = small
    return PhaseAdaptiveSimulator(
        platform,
        phase_adaptive_schedule(design),
        locality=locality,
        stealing_policy=design.stealing_policy("vfi2"),
        params=params,
    )


def _sha256(result):
    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestRuntimeControls:
    """Fault plans and caps act at phase boundaries, which the
    phase-adaptive driver never runs: they are refused, not half
    applied."""

    def test_result_bytes_pinned(self, small):
        result = _small_simulator(small).run(small[0])
        assert _sha256(result) == SMALL_RUN_SHA256

    def test_fault_plan_rejected(self, small):
        horizon = small[4].total_time_s
        for scenario in ("core_failure", "throttle"):
            plan = preset_plan(scenario, horizon, 16)
            with pytest.raises(ValueError, match="fault plans"):
                _small_simulator(small, SimulationParams(fault_plan=plan))

    def test_bounded_cap_rejected(self, small):
        cap = PowerCapSpec(chip_cap_w=1.0)
        with pytest.raises(ValueError, match="power caps"):
            _small_simulator(small, SimulationParams(power_cap=cap))

    def test_empty_plan_and_unbounded_cap_accepted(self, small):
        params = SimulationParams(
            fault_plan=FaultPlan(events=()), power_cap=PowerCapSpec()
        )
        result = _small_simulator(small, params).run(small[0])
        assert result.faults is None and result.power is None
        assert _sha256(result) == SMALL_RUN_SHA256
