"""Phase-adaptive VFI simulation: a per-phase V/F schedule run as a
phase-boundary control of the simulator (``SimulationParams.vf_schedule``)."""

import hashlib
import json

import pytest

from repro.apps import create_app
from repro.core.design_flow import design_vfi, structural_bottleneck_workers
from repro.core.platforms import build_nvfi_mesh, build_vfi_mesh, geometry_for
from repro.core.serialization import result_to_dict
from repro.core.traffic import total_node_traffic
from repro.faults import FaultPlan, preset_plan
from repro.mapreduce.tasks import Phase
from repro.power.spec import PowerCapSpec
from repro.sim.adaptive import VfSchedule, phase_adaptive_schedule
from repro.sim.config import SimulationParams
from repro.sim.system import SystemSimulator, simulate
from repro.telemetry import RecordingTracer, use_tracer
from repro.telemetry.export import write_chrome_trace, write_jsonl
from repro.vfi.islands import DVFS_LADDER, NOMINAL

#: sha256 of ``result_to_dict`` for the 16-core histogram run below,
#: captured when the schedule became a boundary control of the
#: simulator, which charges the transitions' time to the energy
#: segments.
SMALL_RUN_SHA256 = (
    "24a2df1027b7ab5c708c6e3d5dcf7ff0d1671e9ddc0f74093182ec9756a96926"
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
        # One view per distinct assignment; the platform's own
        # assignment runs on the platform itself.
        platform = build_nvfi_mesh(geometry_for(16))
        serial = (DVFS_LADDER[0],) * 4
        schedule = VfSchedule(
            phase_points={Phase.MAP: (NOMINAL,) * 4, Phase.MERGE: serial}
        )
        views = schedule.views(platform)
        assert set(views) == {
            Phase.LIB_INIT, Phase.MAP, Phase.REDUCE, Phase.MERGE
        }
        assert views[Phase.MAP] is views[Phase.LIB_INIT] is platform
        assert views[Phase.REDUCE] is platform
        merge = views[Phase.MERGE]
        assert list(merge.vf_points) == list(serial)
        assert merge.name == f"{platform.name}@merge"

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
        adaptive = simulate(
            platform,
            trace,
            locality=app.profile.l2_locality,
            stealing_policy=design.stealing_policy("vfi2"),
            params=SimulationParams(vf_schedule=phase_adaptive_schedule(design)),
        )
        assert adaptive.total_time_s > 0
        assert adaptive.total_energy_j > 0
        # parking idle islands saves energy on a merge-heavy app
        assert adaptive.total_energy_j < static.total_energy_j
        # transitions cost a little time, never an order of magnitude
        assert adaptive.total_time_s < static.total_time_s * 1.1

    def test_identity_schedule_matches_static(self, setup):
        # A schedule that keeps the platform's own assignment in every
        # phase never switches: the static run, bit for bit.
        app, trace, design, platform, _ = setup
        schedule = VfSchedule(
            phase_points={Phase.MAP: tuple(design.vfi2.points)},
            transition_s=0.0,
        )
        adaptive = simulate(
            platform,
            trace,
            locality=app.profile.l2_locality,
            stealing_policy=design.stealing_policy("vfi2"),
            params=SimulationParams(vf_schedule=schedule),
        )
        static = simulate(
            build_vfi_mesh(design, "vfi2", seed=3),
            trace,
            locality=app.profile.l2_locality,
            stealing_policy=design.stealing_policy("vfi2"),
        )
        assert adaptive.total_time_s == static.total_time_s
        assert adaptive.total_energy_j == static.total_energy_j
        assert result_to_dict(adaptive) == result_to_dict(static)

    def test_phases_cover_walltime_minus_transitions(self, setup):
        app, trace, design, platform, _ = setup
        schedule = phase_adaptive_schedule(design)
        result = simulate(
            platform,
            trace,
            locality=app.profile.l2_locality,
            params=SimulationParams(vf_schedule=schedule),
        )
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
        params = SimulationParams(vf_schedule=phase_adaptive_schedule(design))
        with pytest.raises(ValueError):
            simulate(platform, small, params=params)


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


def _small_simulator(small, schedule=None, **controls):
    """A simulator of the 16-core run under *schedule* (the canonical
    phase-adaptive one by default) and the other runtime *controls*."""
    trace, locality, design, _, _ = small
    geometry = geometry_for(16)
    return SystemSimulator(
        build_vfi_mesh(design, "vfi2", geometry=geometry, seed=3),
        locality=locality,
        stealing_policy=design.stealing_policy("vfi2"),
        params=SimulationParams(
            vf_schedule=schedule or phase_adaptive_schedule(design),
            **controls,
        ),
    )


def _sha256(result):
    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestRuntimeControls:
    """Fault plans and caps re-clock the platform at the same phase
    boundaries a V/F schedule does: with a schedule they are refused,
    not half applied."""

    def test_result_bytes_pinned(self, small):
        result = _small_simulator(small).run(small[0])
        assert _sha256(result) == SMALL_RUN_SHA256

    def test_fault_plan_rejected(self, small):
        horizon = small[4].total_time_s
        for scenario in ("core_failure", "throttle"):
            plan = preset_plan(scenario, horizon, 16)
            with pytest.raises(ValueError, match="fault plans"):
                _small_simulator(small, fault_plan=plan)

    def test_bounded_cap_rejected(self, small):
        cap = PowerCapSpec(chip_cap_w=1.0)
        with pytest.raises(ValueError, match="power caps"):
            _small_simulator(small, power_cap=cap)

    def test_empty_plan_and_unbounded_cap_accepted(self, small):
        simulator = _small_simulator(
            small, fault_plan=FaultPlan(events=()), power_cap=PowerCapSpec()
        )
        result = simulator.run(small[0])
        assert result.faults is None and result.power is None
        assert _sha256(result) == SMALL_RUN_SHA256


class TestTransitions:
    def test_transitions_pay_the_new_views_leakage(self, small):
        # Each change of assignment holds the clock for transition_s on
        # the view the run switches to: time grows by that much, and the
        # cores' static energy by the view's leakage over it.
        trace, _, design, platform, _ = small
        transition_s = 1e-3
        points = phase_adaptive_schedule(design).phase_points
        free = _small_simulator(small, VfSchedule(points, 0.0)).run(trace)
        paid = _small_simulator(small, VfSchedule(points, transition_s)).run(
            trace
        )
        views = VfSchedule(points).views(platform)

        def leakage_w(view):
            return sum(
                view.core_power_of(view.island_of_worker(worker)).leakage_power_w(
                    view.vf_of_worker(worker)
                )
                for worker in range(view.num_cores)
            )

        phases = [stats.phase for stats in paid.phases]
        entered = [
            after
            for before, after in zip(phases, phases[1:])
            if views[before] is not views[after]
        ]
        assert len(entered) == 2  # into Map, then into Merge
        assert paid.total_time_s - free.total_time_s == pytest.approx(
            transition_s * len(entered), rel=1e-9
        )
        leaked = paid.energy.core_static_j - free.energy.core_static_j
        assert leaked == pytest.approx(
            transition_s * sum(leakage_w(views[phase]) for phase in entered),
            rel=1e-9,
        )

    def test_traced_runs_export_identical_traces(self, small, tmp_path):
        # Scheduled views are named after their phases, so two runs from
        # fresh schedules export the same bytes.
        exports = []
        for run in range(2):
            tracer = RecordingTracer()
            with use_tracer(tracer):
                _small_simulator(small).run(small[0])
            chrome, jsonl = tmp_path / f"{run}.json", tmp_path / f"{run}.jsonl"
            write_chrome_trace(tracer, chrome)
            write_jsonl(tracer, jsonl)
            exports.append((chrome.read_bytes(), jsonl.read_bytes()))
        assert exports[0] == exports[1]
        assert b"@lib_init+merge" in exports[0][0]
