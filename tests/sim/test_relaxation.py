"""Phase relaxation: convergence, its bounds and its telemetry."""

import pytest

from repro.apps import create_app
from repro.core.platforms import build_nvfi_mesh
from repro.sim.config import SimulationParams
from repro.sim.system import simulate

#: Totals of the historical fixed-round schedule (two register/refresh
#: rounds plus a final pass) for histogram, scale 0.25, seed 13, 64
#: workers, NVFI mesh: the converged fixed point must stay close to it.
GOLDEN_MESH = {
    "total_time_s": 11.170587333172145,
    "total_energy_j": 1482.3986895602088,
}


@pytest.fixture(scope="module")
def mesh_case():
    app = create_app("histogram", scale=0.25, seed=13)
    return app, app.run(num_workers=64)


class TestAdaptiveConvergence:
    def test_matches_legacy_closely(self, mesh_case):
        """The converged fixed point agrees with the fixed-round totals."""
        app, trace = mesh_case
        adaptive = simulate(
            build_nvfi_mesh(), trace, locality=app.profile.l2_locality
        )
        assert adaptive.total_time_s == pytest.approx(
            GOLDEN_MESH["total_time_s"], rel=1e-3
        )
        assert adaptive.total_energy_j == pytest.approx(
            GOLDEN_MESH["total_energy_j"], rel=1e-3
        )

    def test_tighter_tolerance_converges_further(self, mesh_case):
        """Shrinking rtol moves the result toward the true fixed point,
        and two tight tolerances agree with each other."""
        app, trace = mesh_case
        locality = app.profile.l2_locality
        loose = simulate(
            build_nvfi_mesh(), trace, locality=locality,
            params=SimulationParams(relaxation_rtol=1e-3),
        )
        tight = simulate(
            build_nvfi_mesh(), trace, locality=locality,
            params=SimulationParams(relaxation_rtol=1e-8),
        )
        tighter = simulate(
            build_nvfi_mesh(), trace, locality=locality,
            params=SimulationParams(relaxation_rtol=1e-10),
        )
        assert tight.total_time_s == pytest.approx(
            tighter.total_time_s, rel=1e-6
        )
        gap_loose = abs(loose.total_time_s - tighter.total_time_s)
        gap_tight = abs(tight.total_time_s - tighter.total_time_s)
        assert gap_tight <= gap_loose

    def test_iteration_cap_bounds_work(self, mesh_case):
        """An rtol far below float precision still terminates (the
        max_relaxation_iterations bound)."""
        app, trace = mesh_case
        result = simulate(
            build_nvfi_mesh(), trace, locality=app.profile.l2_locality,
            params=SimulationParams(
                relaxation_rtol=1e-300, max_relaxation_iterations=3
            ),
        )
        assert result.total_time_s > 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SimulationParams(relaxation_rtol=0.0)
        with pytest.raises(ValueError):
            SimulationParams(relaxation_rtol=-1e-6)
        with pytest.raises(ValueError):
            SimulationParams(max_relaxation_iterations=0)
        with pytest.raises(ValueError):
            SimulationParams(relaxation_rtol=None)

    def test_relaxation_telemetry_recorded(self, mesh_case):
        from repro.telemetry import RecordingTracer, use_tracer

        app, trace = mesh_case
        tracer = RecordingTracer()
        with use_tracer(tracer):
            simulate(
                build_nvfi_mesh(), trace, locality=app.profile.l2_locality
            )
        # One iteration count per relaxed phase, plus the histogram view.
        total_iterations = tracer.counter_total("sim.relaxation_iterations")
        assert total_iterations >= 2.0  # relaxation always runs >= 2 rounds
        histogram = tracer.histograms["sim.relaxation_iterations"]
        assert histogram.count >= 1
        residuals = [
            s for s in tracer.samples if s.name == "sim.relaxation_residual"
        ]
        assert residuals
        assert all(s.value >= 0.0 for s in residuals)
