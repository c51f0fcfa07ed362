"""Large-die smoke: the paper pipeline beyond the 64-core die.

End-to-end checks back the parametric-geometry refactor:

* a 256-core (16x16, four 8x8 islands) wireless VFI study runs the
  complete pipeline -- app execution, NVFI characterization, VFI design
  flow, all four platform configurations including the WiNoC -- and
  produces physically sensible results;
* a 128-core (16x8) study resolves through the experiment orchestrator
  with a persistent cache: the cold run computes, the warm run must be
  a pure cache hit, and the manifests record both;
* a 256-core matrix_multiply study whose NVFI run leaves whole islands
  idle still runs to the end;
* every map round of a 256-core wordcount study dispatches exactly as
  the reference heap loop (``tests/sim/map_oracle.py``) does, at a size
  the tier-1 dispatch cases (16 workers at most) never reach.

All use a reduced dataset scale so the smoke stays minutes-scale; the
committed ``results/large_die_smoke.json`` records the headline
normalized metrics per die size.
"""

import gc
import json
import time

from conftest import write_result

from repro.apps.registry import create_app
from repro.core.design_flow import design_vfi, structural_bottleneck_workers
from repro.core.experiment import (
    NVFI_MESH,
    VFI1_MESH,
    VFI2_MESH,
    VFI2_WINOC,
    run_app_study,
)
from repro.core.platforms import build_nvfi_mesh, build_vfi_winoc, die_for
from repro.core.traffic import total_node_traffic
from repro.orchestrator import StudySpec, run_campaign
from repro.sim.system import simulate
from repro.utils.rng import spawn_seed
from repro.vfi.islands import DVFS_LADDER

from tests.sim import map_oracle

APP = "histogram"
SCALE = 0.05
SEED = 9
RESULT_NAME = "large_die_smoke.json"

ALL_CONFIGS = (NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC)


def test_256_core_winoc_end_to_end(results_dir):
    study = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=256, use_cache=False,
    )
    assert sorted(study.results) == sorted(ALL_CONFIGS)
    for config in ALL_CONFIGS:
        result = study.result(config)
        assert result.total_time_s > 0
        assert result.total_energy_j > 0
    # The overlay must actually carry traffic on a 16x16 die.
    assert study.result(VFI2_WINOC).network.wireless_fraction > 0
    write_result(results_dir, RESULT_NAME, json.dumps({
        "app": APP, "scale": SCALE, "seed": SEED, "num_workers": 256,
        "normalized_time": {
            config: study.normalized_time(config) for config in ALL_CONFIGS
        },
        "normalized_edp": {
            config: study.normalized_edp(config) for config in ALL_CONFIGS
        },
        "winoc_wireless_fraction": (
            study.result(VFI2_WINOC).network.wireless_fraction
        ),
    }, indent=2))


def test_256_core_study_with_an_idle_island():
    # Seed 7's 256-core matrix_multiply leaves whole islands idle in the
    # NVFI run; each all-idle island takes the ladder's lowest point and
    # the study runs to the end.
    study = run_app_study(
        "matrix_multiply", scale=SCALE, seed=7, num_workers=256,
        use_cache=False,
    )
    assert sorted(study.results) == sorted(ALL_CONFIGS)
    vfi1 = study.design.vfi1
    assert 0.0 in vfi1.island_utilization
    for point, utilization in zip(vfi1.points, vfi1.island_utilization):
        if utilization == 0.0:
            assert point == DVFS_LADDER[0]
    for config in ALL_CONFIGS:
        assert study.result(config).total_time_s > 0


def test_256_core_map_rounds_match_the_oracle(monkeypatch):
    # Seed 7's 256-core wordcount (the bench's die256 study): every map
    # round of all four systems, relaxation rounds included, against the
    # reference loop -- schedules, phase ends, steal counters and
    # executed counts.
    totals = map_oracle.check_every_round(monkeypatch)
    run_app_study(
        "wordcount", scale=SCALE, seed=7, num_workers=256, use_cache=False,
    )
    assert totals["calls"] > 0 and totals["steals"] > 0


def test_256_core_simulate_wall_clock(results_dir):
    # The cluster service amortizes app traces, platform builds and the
    # design flow through its caches, so the per-``simulate()`` wall
    # time is what bounds fleet-scale sweeps.  With the heap-loop map
    # dispatch and the vectorized kv/path-walk hot loops, a full
    # 256-core WiNoC simulation must stay under one wall-clock second
    # (the batch budget CI enforces).
    app = create_app(APP, scale=SCALE, seed=SEED)
    locality = app.profile.l2_locality
    trace = app.run(num_workers=256)
    geometry = die_for(256)
    nvfi_result = simulate(build_nvfi_mesh(geometry), trace, locality=locality)
    traffic = total_node_traffic(trace, locality)
    design = design_vfi(
        utilization=nvfi_result.utilization,
        traffic=traffic,
        num_islands=geometry.num_islands,
        seed=spawn_seed(SEED, APP, "clustering"),
        structural_workers=structural_bottleneck_workers(trace),
    )

    def build_winoc():
        return build_vfi_winoc(
            design, "vfi2", geometry=geometry,
            seed=spawn_seed(SEED, APP, "winoc"),
            traffic_rate_bps=traffic * 8.0 / nvfi_result.total_time_s,
        )

    def build_once() -> float:
        gc.collect()  # no fabric of an earlier build carries over
        begin = time.perf_counter()
        build_winoc()
        return time.perf_counter() - begin

    # The calibrated build (small-world wiring, wireless overlay, the
    # calibration's walks), reported beside simulate() with no budget.
    winoc_build = min(build_once() for _ in range(3))
    platform = build_winoc()
    policy = design.stealing_policy("vfi2")

    def simulate_once() -> float:
        begin = time.perf_counter()
        simulate(platform, trace, locality=locality, stealing_policy=policy)
        return time.perf_counter() - begin

    simulate_once()  # warm path tables / numpy dispatch
    best = min(simulate_once() for _ in range(3))
    write_result(results_dir, "large_die_wall_clock.json", json.dumps({
        "app": APP, "scale": SCALE, "seed": SEED, "num_workers": 256,
        "config": VFI2_WINOC, "simulate_s": best, "budget_s": 1.0,
        "winoc_build_s": winoc_build,
    }, indent=2))
    assert best < 1.0, (
        f"256-core WiNoC simulate() took {best:.3f}s (budget 1.0s)"
    )


def test_128_core_study_through_orchestrator(tmp_path):
    spec = StudySpec(app=APP, scale=SCALE, seed=SEED, num_workers=128)
    cache_dir = tmp_path / "cache"

    cold = run_campaign([spec], jobs=1, cache=str(cache_dir))
    cold.raise_failures()
    assert cold.manifest.num_computed == 1
    study = cold.study(spec)
    assert sorted(study.results) == sorted(ALL_CONFIGS)

    warm = run_campaign([spec], jobs=1, cache=str(cache_dir))
    warm.raise_failures()
    assert warm.manifest.num_cached == 1
    assert warm.study(spec).result(VFI2_WINOC).total_time_s == (
        study.result(VFI2_WINOC).total_time_s
    )
