"""Energy segments cover the whole run.

A run's energy is one fold over platform segments
(``SystemSimulator._segments``): each stretch of the run on one
platform configuration is charged its elapsed time at that
configuration's V/F.  Whatever re-clocks the platform at phase
boundaries -- a fault plan, the cap governor or a per-phase V/F
schedule -- the segments must tile ``[0, total_time_s]``: time they
leave out is time no core or switch pays leakage for.
"""

import pytest

from repro.apps import create_app
from repro.core.design_flow import design_vfi, structural_bottleneck_workers
from repro.core.platforms import build_nvfi_mesh, build_vfi_mesh, geometry_for
from repro.core.traffic import total_node_traffic
from repro.faults import preset_plan
from repro.power.frontier import chip_peak_power_w
from repro.sim.adaptive import phase_adaptive_schedule
from repro.sim.config import SimulationParams
from repro.sim.system import SystemSimulator, simulate

WORKERS = 16


@pytest.fixture(scope="module")
def histogram16():
    app = create_app("histogram", scale=0.05, seed=9)
    trace = app.run(num_workers=WORKERS)
    locality = app.profile.l2_locality
    nvfi = simulate(build_nvfi_mesh(geometry_for(WORKERS)), trace, locality=locality)
    design = design_vfi(
        nvfi.utilization,
        total_node_traffic(trace, locality),
        seed=3,
        structural_workers=structural_bottleneck_workers(trace),
    )
    return trace, locality, design, nvfi.total_time_s


#: name -> (the run's ``SimulationParams`` from (design, horizon), the
#: fewest segments its controls must produce).
RUNS = {
    "clean": (lambda design, horizon: SimulationParams(), 1),
    "mixed": (
        lambda design, horizon: SimulationParams(
            fault_plan=preset_plan("mixed", horizon, WORKERS)
        ),
        2,
    ),
    "capped": (
        lambda design, horizon: SimulationParams(
            power_cap=0.6 * chip_peak_power_w(WORKERS)
        ),
        2,
    ),
    "phase_adaptive": (
        lambda design, horizon: SimulationParams(
            vf_schedule=phase_adaptive_schedule(design)
        ),
        3,
    ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_segments_cover_the_run(histogram16, name):
    trace, locality, design, horizon = histogram16
    params, fewest = RUNS[name]
    simulator = SystemSimulator(
        build_vfi_mesh(design, "vfi2", geometry=geometry_for(WORKERS), seed=3),
        locality=locality,
        stealing_policy=design.stealing_policy("vfi2"),
        params=params(design, horizon),
    )
    result = simulator.run(trace)
    segments = simulator._segments
    assert len(segments) >= fewest
    assert all(segment.elapsed_s >= 0.0 for segment in segments)
    covered = sum(segment.elapsed_s for segment in segments)
    assert covered == pytest.approx(result.total_time_s, rel=1e-12)
