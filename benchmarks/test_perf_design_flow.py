"""Performance guard: the VFI design flow's three annealers.

Times the QP-clustering solve (:func:`solve_simulated_annealing`, the
Eq. 1/2 objective annealed over island assignments), the wireless
interface placement (:func:`optimize_wireless_placement`, min-hop SA
over WI slots) and the communication-aware thread mapping
(:func:`communication_aware_mapping`, SA over within-island worker
swaps) in a fresh interpreter, next to the same fixed
pure-Python/NumPy *calibration workload* used by ``test_perf_simulator``.
The guard compares the **ratio** of design time (clustering plus
placement) to calibration time against the committed baseline ratio,
so it measures the design flow's own efficiency rather than the
machine it happens to run on.

The committed ``results/perf_design_flow.json`` carries:

* ``baseline`` -- the ratio this guard defends (refreshed only
  deliberately, by deleting the file and re-running);
* ``latest`` -- the most recent measurement (updated every run), with
  the per-stage clustering, placement and mapping floors alongside the
  total, and each stage's ratio to calibration in ``stage_ratios``.

The guard fails when the measured ratio regresses more than
``BUDGET`` (25%) beyond the baseline ratio; the failure message names
every stage's time and ratio, so it says which annealer moved.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

from conftest import write_result

#: Allowed relative regression of the design/calibration ratio.
BUDGET = 0.25

RESULT_NAME = "perf_design_flow.json"

#: Timed stages; ``design_s`` (the asserted total) is clustering plus
#: placement, as when the baseline was committed.
STAGES = ("clustering", "placement", "mapping")

_CHILD = textwrap.dedent(
    """
    import json
    import time

    import numpy as np

    # ------------------------------------------------------------------
    # Calibration workload: identical to test_perf_simulator's, so the
    # two guards share one notion of host speed.
    # ------------------------------------------------------------------
    def calibration():
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        a = np.arange(262_144, dtype=float).reshape(512, 512)
        for _ in range(12):
            a = a @ np.eye(512) * 0.5 + 1.0
        return time.perf_counter() - start

    from repro.apps.registry import create_app
    from repro.core.platforms import build_nvfi_mesh, die_for, geometry_for
    from repro.core.traffic import total_node_traffic
    from repro.mapping.thread_mapping import communication_aware_mapping
    from repro.noc.placement import optimize_wireless_placement
    from repro.noc.topology import build_mesh
    from repro.sim.system import simulate
    from repro.utils.rng import spawn_seed
    from repro.vfi.clustering import (
        ClusteringProblem, solve_simulated_annealing,
    )

    # Characterize once (untimed): the annealers' inputs come from a
    # real NVFI run, like the Fig. 3 flow they belong to.
    app = create_app("wordcount", scale=0.3, seed=7)
    trace = app.run(num_workers=64)
    geometry = geometry_for(64)
    nvfi_result = simulate(
        build_nvfi_mesh(geometry), trace, locality=app.profile.l2_locality
    )
    traffic = total_node_traffic(trace, app.profile.l2_locality)
    problem = ClusteringProblem(
        traffic=traffic,
        utilization=np.asarray(nvfi_result.utilization, dtype=float),
        num_clusters=4,
    )
    wireline = build_mesh(geometry)
    layout = die_for(64).layout()

    def clustering_once():
        start = time.perf_counter()
        result = solve_simulated_annealing(
            problem, iterations=4000,
            seed=spawn_seed(7, "wordcount", "clustering"),
        )
        return time.perf_counter() - start, result

    def placement_once(clusters):
        start = time.perf_counter()
        optimize_wireless_placement(
            wireline, clusters, traffic,
            seed=spawn_seed(7, "wordcount", "winoc"),
        )
        return time.perf_counter() - start

    def mapping_once(clusters):
        start = time.perf_counter()
        communication_aware_mapping(
            clusters, layout, traffic,
            seed=spawn_seed(7, "wordcount", "mapping"),
        )
        return time.perf_counter() - start

    elapsed, clustering = clustering_once()  # warm caches
    placement_once(clustering.assignment)
    mapping_once(clustering.assignment)
    calibration()
    clustering_s = min(clustering_once()[0] for _ in range(3))
    placement_s = min(
        placement_once(clustering.assignment) for _ in range(3)
    )
    mapping_s = min(mapping_once(clustering.assignment) for _ in range(3))
    print(json.dumps({
        "clustering_s": clustering_s,
        "placement_s": placement_s,
        "mapping_s": mapping_s,
        "design_s": clustering_s + placement_s,
        "calibration_s": min(calibration() for _ in range(5)),
    }))
    """
)


def _time_child() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_design_flow_performance(results_dir):
    committed = pathlib.Path(results_dir) / RESULT_NAME
    previous = json.loads(committed.read_text()) if committed.exists() else {}
    baseline = previous.get("baseline")

    floors = None
    ratio = float("inf")
    for _ in range(3):  # repeat until the floors stabilize
        sample = _time_child()
        floors = (
            sample if floors is None
            else {key: min(floors[key], sample[key]) for key in floors}
        )
        ratio = floors["design_s"] / floors["calibration_s"]
        if baseline and ratio <= baseline["ratio"] * (1.0 + BUDGET):
            break

    if baseline is None:
        # First run on a fresh checkout: establish the baseline.
        baseline = dict(floors, ratio=ratio)

    stage_ratios = {
        stage: floors[f"{stage}_s"] / floors["calibration_s"]
        for stage in STAGES
    }
    payload = {
        "baseline": baseline,
        "latest": dict(floors, ratio=ratio, stage_ratios=stage_ratios),
        "budget": BUDGET,
    }
    write_result(results_dir, RESULT_NAME, json.dumps(payload, indent=2))

    stages = ", ".join(
        f"{stage} {floors[f'{stage}_s']:.3f}s (ratio {stage_ratios[stage]:.3f})"
        for stage in STAGES
    )
    assert ratio <= baseline["ratio"] * (1.0 + BUDGET), (
        f"design/calibration ratio {ratio:.3f} regressed beyond "
        f"baseline {baseline['ratio']:.3f} (+{BUDGET * 100:.0f}% budget); "
        f"{stages}, calibration {floors['calibration_s']:.3f}s"
    )
