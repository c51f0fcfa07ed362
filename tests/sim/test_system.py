"""Full-system simulator: physical sanity and paper-relevant behaviours."""

import numpy as np
import pytest

from repro.apps import create_app
from repro.core.platforms import build_nvfi_mesh
from repro.mapreduce.tasks import Phase
from repro.sim.system import SystemSimulator, simulate
from repro.vfi.islands import DVFS_LADDER, NOMINAL


@pytest.fixture(scope="module")
def app():
    return create_app("histogram", scale=0.25, seed=13)


@pytest.fixture(scope="module")
def trace(app):
    return app.run(num_workers=64)


@pytest.fixture(scope="module")
def nvfi_result(trace, app):
    return simulate(build_nvfi_mesh(), trace, locality=app.profile.l2_locality)


class TestSanity:
    def test_positive_duration_and_energy(self, nvfi_result):
        assert nvfi_result.total_time_s > 0
        assert nvfi_result.total_energy_j > 0
        assert nvfi_result.energy.noc_dynamic_j > 0

    def test_busy_bounded_by_walltime(self, nvfi_result):
        assert (nvfi_result.busy_s <= nvfi_result.total_time_s + 1e-12).all()

    def test_utilization_in_unit_interval(self, nvfi_result):
        u = nvfi_result.utilization
        assert (u >= 0).all() and (u <= 1).all()

    def test_phases_cover_walltime(self, nvfi_result):
        covered = sum(p.duration_s for p in nvfi_result.phases)
        assert covered == pytest.approx(nvfi_result.total_time_s, rel=1e-9)

    def test_phase_order_is_contiguous(self, nvfi_result):
        phases = nvfi_result.phases
        for before, after in zip(phases, phases[1:]):
            assert after.start_s == pytest.approx(before.end_s)

    def test_all_phase_kinds_present(self, nvfi_result):
        kinds = {p.phase for p in nvfi_result.phases}
        assert kinds == {Phase.LIB_INIT, Phase.MAP, Phase.REDUCE, Phase.MERGE}

    def test_master_committed_includes_lib_init(self, nvfi_result, trace):
        lib_instr = trace.iterations[0].lib_init.cost.instructions
        assert nvfi_result.committed_instructions[0] >= lib_instr

    def test_total_committed_matches_trace(self, nvfi_result, trace):
        assert nvfi_result.committed_instructions.sum() == pytest.approx(
            trace.total_instructions(), rel=1e-9
        )


class TestFrequencyBehaviour:
    def test_lower_vf_is_slower_but_saves_core_energy(self, trace, app):
        nominal = simulate(
            build_nvfi_mesh(), trace, locality=app.profile.l2_locality
        )
        slow_platform = build_nvfi_mesh().with_vf([DVFS_LADDER[2]] * 4, name="slow")
        slow = simulate(slow_platform, trace, locality=app.profile.l2_locality)
        assert slow.total_time_s > nominal.total_time_s
        assert slow.total_energy_j < nominal.total_energy_j

    def test_half_slow_chip_between_extremes(self, trace, app):
        mixed_platform = build_nvfi_mesh().with_vf(
            [NOMINAL, NOMINAL, DVFS_LADDER[2], DVFS_LADDER[2]], name="mixed"
        )
        mixed = simulate(mixed_platform, trace, locality=app.profile.l2_locality)
        nominal = simulate(
            build_nvfi_mesh(), trace, locality=app.profile.l2_locality
        )
        slow = simulate(
            build_nvfi_mesh().with_vf([DVFS_LADDER[2]] * 4, name="slow"),
            trace,
            locality=app.profile.l2_locality,
        )
        assert nominal.total_time_s < mixed.total_time_s < slow.total_time_s


class TestDeterminism:
    def test_repeatable(self, trace, app):
        a = simulate(build_nvfi_mesh(), trace, locality=app.profile.l2_locality)
        b = simulate(build_nvfi_mesh(), trace, locality=app.profile.l2_locality)
        assert a.total_time_s == pytest.approx(b.total_time_s, rel=1e-12)
        assert a.total_energy_j == pytest.approx(b.total_energy_j, rel=1e-12)


class TestValidation:
    def test_worker_count_mismatch(self, app):
        small_trace = create_app("histogram", scale=0.25, seed=13).run(num_workers=32)
        with pytest.raises(ValueError):
            simulate(build_nvfi_mesh(), small_trace)

    def test_simulator_runs_once(self, trace, app):
        # A second run would start from the first run's network counters
        # (double the NoC energy at the same time), so it is refused.
        simulator = SystemSimulator(
            build_nvfi_mesh(), locality=app.profile.l2_locality
        )
        first = simulator.run(trace)
        with pytest.raises(RuntimeError, match="build a new simulator"):
            simulator.run(trace)
        again = simulate(
            build_nvfi_mesh(), trace, locality=app.profile.l2_locality
        )
        assert again.energy.noc_dynamic_j == first.energy.noc_dynamic_j
        assert again.total_time_s == first.total_time_s
