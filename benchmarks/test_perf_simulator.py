"""Performance guard: end-to-end ``simulate()`` on the 64-core WiNoC.

Times one full-system simulation of WordCount on the VFI-2 WiNoC
platform (the paper's headline configuration) in a fresh interpreter,
next to a fixed pure-Python/NumPy *calibration workload* that tracks the
host's speed.  The guard compares the **ratio** of simulate time to
calibration time against the committed baseline ratio, so it measures
the simulator's own efficiency rather than the machine it happens to
run on.

Two timings come from the same child process:

* *warm* -- ``simulate()`` on a platform whose static NoC tables an
  earlier call already built: the simulation loop alone;
* *cold* -- ``simulate()`` on a freshly built platform while no other
  platform over its fabric is alive, so every all-pairs table (dense
  latency, pairwise energy, flow usage) is built inside the timed call,
  as on a study's first simulation of a system.  (A
  ``platform.with_vf`` copy would share the warm platform's fabric and
  find its tables built.)

The committed ``results/perf_simulator.json`` carries, for the warm
timing at the top level and for the cold one under ``"cold"``:

* ``baseline`` -- the ratio this guard defends (refreshed only
  deliberately, by deleting the entry and re-running);
* ``reference_prechange`` -- the same protocol measured before the
  change the baseline documents (pre-vectorization for warm, the
  per-pair table builders for cold);
* ``latest`` -- the most recent measurement (updated every run).

The guard fails when either ratio regresses more than ``BUDGET`` (25%)
beyond its baseline.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

from conftest import write_result

#: Allowed relative regression of the simulate/calibration ratio.
BUDGET = 0.25

RESULT_NAME = "perf_simulator.json"

_CHILD = textwrap.dedent(
    """
    import json
    import time

    import numpy as np

    # ------------------------------------------------------------------
    # Calibration workload: fixed mixed Python/NumPy work whose runtime
    # scales with host speed the same way the simulator's does.
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
    from repro.core.design_flow import (
        design_vfi, structural_bottleneck_workers,
    )
    from repro.core.platforms import (
        build_nvfi_mesh, build_vfi_winoc, geometry_for,
    )
    from repro.core.traffic import total_node_traffic
    from repro.sim.system import simulate
    from repro.utils.rng import spawn_seed

    app = create_app("wordcount", scale=0.3, seed=7)
    locality = app.profile.l2_locality
    trace = app.run(num_workers=64)
    geometry = geometry_for(64)
    nvfi_result = simulate(build_nvfi_mesh(geometry), trace, locality=locality)
    traffic = total_node_traffic(trace, locality)
    design = design_vfi(
        utilization=nvfi_result.utilization,
        traffic=traffic,
        seed=spawn_seed(7, "wordcount", "clustering"),
        structural_workers=structural_bottleneck_workers(trace),
    )

    def build():
        return build_vfi_winoc(
            design, "vfi2", geometry=geometry,
            seed=spawn_seed(7, "wordcount", "winoc"),
            traffic_rate_bps=traffic * 8.0 / nvfi_result.total_time_s,
        )

    def cold_simulate_once():
        # The previous repetition's platform, and with it its fabric,
        # is gone: every table is built inside the timed call.
        cold = build()
        start = time.perf_counter()
        simulate(
            cold, trace, locality=locality,
            stealing_policy=design.stealing_policy("vfi2"),
        )
        return time.perf_counter() - start

    cold_simulate_s = min(cold_simulate_once() for _ in range(3))
    platform = build()

    def simulate_once():
        start = time.perf_counter()
        simulate(
            platform, trace, locality=locality,
            stealing_policy=design.stealing_policy("vfi2"),
        )
        return time.perf_counter() - start

    simulate_once()  # warm caches (imports, path tables, numpy dispatch)
    calibration()

    print(json.dumps({
        "simulate_s": min(simulate_once() for _ in range(5)),
        "cold_simulate_s": cold_simulate_s,
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


def _guard_entry(previous: dict, simulate_s: float, calibration_s: float):
    """One timing's JSON entry: committed baseline/reference + latest."""
    ratio = simulate_s / calibration_s
    latest = {
        "simulate_s": simulate_s,
        "calibration_s": calibration_s,
        "ratio": ratio,
    }
    # First run on a fresh checkout establishes the baseline.
    entry = {"baseline": previous.get("baseline") or latest, "latest": latest}
    entry["budget"] = BUDGET
    reference = previous.get("reference_prechange")
    if reference is not None:
        entry["reference_prechange"] = reference
        if reference.get("ratio"):
            entry["speedup_vs_prechange"] = reference["ratio"] / ratio
    return entry


def _within_budget(entry: dict) -> bool:
    return entry["latest"]["ratio"] <= entry["baseline"]["ratio"] * (1.0 + BUDGET)


def test_simulator_performance(results_dir):
    committed = pathlib.Path(results_dir) / RESULT_NAME
    previous = json.loads(committed.read_text()) if committed.exists() else {}

    floors = {}
    for _ in range(3):  # repeat until the floors stabilize
        sample = _time_child()
        for key, value in sample.items():
            floors[key] = min(value, floors.get(key, value))
        warm = _guard_entry(
            previous, floors["simulate_s"], floors["calibration_s"]
        )
        cold = _guard_entry(
            previous.get("cold", {}),
            floors["cold_simulate_s"],
            floors["calibration_s"],
        )
        if _within_budget(warm) and _within_budget(cold):
            break

    write_result(
        results_dir, RESULT_NAME, json.dumps(dict(warm, cold=cold), indent=2)
    )
    for label, entry in (("warm", warm), ("cold", cold)):
        latest, baseline = entry["latest"], entry["baseline"]
        assert _within_budget(entry), (
            f"{label} simulate()/calibration ratio {latest['ratio']:.3f} "
            f"regressed beyond baseline {baseline['ratio']:.3f} "
            f"(+{BUDGET * 100:.0f}% budget); simulate "
            f"{latest['simulate_s']:.3f}s, calibration "
            f"{latest['calibration_s']:.3f}s"
        )
