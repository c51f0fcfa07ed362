"""The tech axis must not perturb the paper's default pipeline.

An explicit default :class:`TechSpec` (65 nm, ITRS, homogeneous OoO)
must collapse to the *same identity* as passing no tech at all -- same
memoized study object, same platform constants -- and a non-default
spec must actually change the physics.  The 64-core default path is
pinned bit-for-bit against the golden file in
``tests/core/test_golden_64core.py``; this module covers the identity
rules at the cheap 16-core size, and as a property over apps, die
sizes, systems and a stressed (throttled + capped) run.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES
from repro.core.experiment import (
    NVFI_MESH,
    VFI2_MESH,
    VFI2_WINOC,
    run_app_study,
)
from repro.core.platforms import (
    build_nvfi_mesh,
    build_vfi_mesh,
    build_vfi_winoc,
    die_for,
    geometry_for,
)
from repro.core.serialization import result_to_dict
from repro.energy.core_power import CorePowerParams
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.noc.energy import NocEnergyParams
from repro.power import PowerCapSpec
from repro.power.frontier import chip_peak_power_w
from repro.sim.config import SimulationParams
from repro.sim.system import simulate
from repro.tech import TechSpec
from repro.utils.rng import spawn_seed
from repro.vfi.islands import DVFS_LADDER

APP = "histogram"
SCALE = 0.05
SEED = 9
WORKERS = 16

#: Island 1 two ladder steps down from the start of the run.
THROTTLE = FaultPlan(
    events=(FaultSpec(FaultKind.ISLAND_THROTTLE, 0.0, (1,), magnitude=2),),
    name="throttle",
)


def test_default_techspec_is_the_same_memoized_study():
    plain = run_app_study(APP, scale=SCALE, seed=SEED, num_workers=WORKERS)
    explicit = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS, tech=TechSpec()
    )
    # Not merely equal: the default spec collapses to None before the
    # memo key, so both calls resolve to one cache entry.
    assert explicit is plain


def test_default_platform_carries_the_paper_constants():
    platform = build_nvfi_mesh(geometry_for(WORKERS))
    k = platform.layout.num_clusters
    assert platform.dvfs_ladder == DVFS_LADDER
    assert platform.island_core_power == (CorePowerParams(),) * k
    assert platform.perf_scales == (1.0,) * k
    assert platform.noc_energy_params == NocEnergyParams()
    assert all(
        platform.core_power_of(island).params == CorePowerParams()
        for island in range(k)
    )
    assert platform.effective_worker_frequencies() == [
        platform.vf_of_worker(w).frequency_hz for w in range(platform.num_cores)
    ]
    # TechSpec() is the paper platform, field for field.
    explicit = build_nvfi_mesh(geometry_for(WORKERS), tech=TechSpec())
    for name in (
        "vf_points", "dvfs_ladder", "core_power_params", "island_core_power",
        "perf_scales", "noc_energy_params",
    ):
        assert getattr(explicit, name) == getattr(platform, name)


def test_tech_platform_carries_ladder_mix_and_power():
    tech = TechSpec(node="32nm", cores="big_little")
    platform = build_nvfi_mesh(geometry_for(WORKERS), tech=tech)
    assert platform.dvfs_ladder == tech.ladder()
    num_islands = platform.layout.num_clusters
    mix = tech.mix_for(num_islands)
    assert platform.perf_scales == mix.perf_scales()
    assert len(platform.island_core_power) == num_islands
    node = tech.tech_node()
    assert platform.core_power_of(0).params == CorePowerParams.from_tech(
        node, "ooo"
    )
    assert platform.core_power_of(num_islands - 1).params == (
        CorePowerParams.from_tech(node, "io")
    )
    # Little islands run at a perf discount: effective < physical clock.
    little_worker = next(
        w for w in range(WORKERS)
        if platform.island_of_worker(w) == num_islands - 1
    )
    assert platform.effective_worker_frequencies()[
        little_worker
    ] == pytest.approx(platform.vf_of_worker(little_worker).frequency_hz * 0.55)


def test_non_default_tech_changes_the_measured_physics():
    plain = run_app_study(APP, scale=SCALE, seed=SEED, num_workers=WORKERS)
    shrunk = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS,
        tech=TechSpec(node="32nm"),
    )
    base = plain.result(VFI2_WINOC)
    scaled = shrunk.result(VFI2_WINOC)
    # 32 nm: faster clock -> shorter makespan; less dynamic power -> and
    # the energy drops even further.
    assert scaled.total_time_s < base.total_time_s
    assert scaled.total_energy_j < base.total_energy_j


def test_big_little_trades_time_for_energy():
    plain = run_app_study(APP, scale=SCALE, seed=SEED, num_workers=WORKERS)
    mixed = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS,
        tech=TechSpec(cores="big_little"),
    )
    base = plain.result(VFI2_WINOC)
    hetero = mixed.result(VFI2_WINOC)
    # In-order islands slow the run but cut core power.
    assert hetero.total_time_s > base.total_time_s
    assert hetero.total_energy_j < base.total_energy_j


def _platform(system, app, study, workers, tech):
    """*system* for *app*'s *study* as ``run_app_study`` builds it."""
    geometry = die_for(workers)
    if system == NVFI_MESH:
        return build_nvfi_mesh(geometry, tech=tech)
    if system == VFI2_MESH:
        return build_vfi_mesh(
            study.design, "vfi2", geometry=geometry,
            seed=spawn_seed(SEED, app, "mapping"), tech=tech,
        )
    rate = study.design.traffic * 8.0 / study.result(NVFI_MESH).total_time_s
    return build_vfi_winoc(
        study.design, "vfi2", geometry=geometry,
        seed=spawn_seed(SEED, app, "winoc"),
        traffic_rate_bps=rate, tech=tech,
    )


def _result_bytes(platform, study, system, params):
    policy = None if system == NVFI_MESH else study.design.stealing_policy("vfi2")
    result = simulate(
        platform, study.trace, locality=study.app.profile.l2_locality,
        stealing_policy=policy, params=params,
    )
    return json.dumps(result_to_dict(result), sort_keys=True)


@settings(max_examples=10, deadline=None)
@given(
    app=st.sampled_from(APP_NAMES),
    workers=st.sampled_from((16, 64)),
    system=st.sampled_from((NVFI_MESH, VFI2_MESH, VFI2_WINOC)),
    stressed=st.booleans(),
)
def test_default_specs_give_the_same_bytes(app, workers, system, stressed):
    study = run_app_study(app, scale=SCALE, seed=SEED, num_workers=workers)
    fault_plan = THROTTLE if stressed else None
    params = SimulationParams(
        fault_plan=fault_plan,
        power_cap=(
            PowerCapSpec(chip_cap_w=0.6 * chip_peak_power_w(workers))
            if stressed else None
        ),
    )
    plain = _platform(system, app, study, workers, tech=None)
    expected = _result_bytes(plain, study, system, params)
    explicit = _platform(system, app, study, workers, tech=TechSpec())
    assert _result_bytes(explicit, study, system, params) == expected
    # The unbounded cap is no cap, with or without a fault plan.
    uncapped = _result_bytes(
        plain, study, system, SimulationParams(fault_plan=fault_plan)
    )
    unbounded = _result_bytes(
        plain, study, system,
        SimulationParams(fault_plan=fault_plan, power_cap=PowerCapSpec()),
    )
    assert unbounded == uncapped
