"""Capture the 64-core golden baseline (run from the repo root).

Writes ``tests/data/golden_64core.json`` with pinned SimulationResult
numbers for the four paper configurations, a faulted run, the
telemetry island summary, and a run under the ``mixed`` fault preset
(placed against the clean NVFI horizon) composed with a 0.6x chip-peak
power cap -- the reference the bit-for-bit regression test
(``tests/core/test_golden_64core.py``) compares against.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

import numpy as np

from repro.core.experiment import run_app_study
from repro.faults import preset_plan
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.power import PowerCapSpec
from repro.power.frontier import chip_peak_power_w
from repro.telemetry import RecordingTracer, use_tracer
from repro.telemetry.summary import island_summary, phase_summary

APP = "histogram"
SCALE = 0.05
SEED = 9
WORKERS = 64
#: The composed run's chip cap, as a share of the uncapped chip peak.
CAP_FRACTION = 0.6


def result_fingerprint(result):
    return {
        "total_time_s": result.total_time_s,
        "total_energy_j": result.total_energy_j,
        "core_dynamic_j": result.energy.core_dynamic_j,
        "core_static_j": result.energy.core_static_j,
        "noc_dynamic_j": result.energy.noc_dynamic_j,
        "noc_static_j": result.energy.noc_static_j,
        "busy_sum_s": float(np.sum(result.busy_s)),
        "committed_sum": float(np.sum(result.committed_instructions)),
        "bits_moved": result.network.bits_moved,
        "average_hops": result.network.average_hops,
        "wireless_fraction": result.network.wireless_fraction,
        "num_phases": len(result.phases),
    }


def fault_plan():
    return FaultPlan(
        events=(
            FaultSpec(FaultKind.CORE_FAILURE, 0.002, (13,)),
            FaultSpec(FaultKind.ISLAND_THROTTLE, 0.001, (2,), magnitude=1),
        ),
        name="golden",
    )


def composed_study(horizon_s):
    """The ``mixed`` preset against *horizon_s* under a 0.6x chip cap: a
    link failure (degraded fabric) with the governor's capped views
    stacked on top of it."""
    return run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS, use_cache=False,
        fault_plan=preset_plan("mixed", horizon_s, WORKERS),
        power_cap=PowerCapSpec(
            chip_cap_w=CAP_FRACTION * chip_peak_power_w(WORKERS)
        ),
    )


def main():
    golden = {"app": APP, "scale": SCALE, "seed": SEED, "num_workers": WORKERS}

    tracer = RecordingTracer()
    with use_tracer(tracer):
        study = run_app_study(
            APP, scale=SCALE, seed=SEED, num_workers=WORKERS, use_cache=False
        )
    golden["configs"] = {
        name: result_fingerprint(result)
        for name, result in study.results.items()
    }
    vfi2 = "vfi2-mesh"
    golden["telemetry"] = {
        "phase_summary": phase_summary(tracer, pid=vfi2)[vfi2],
        "island_summary": island_summary(
            tracer, vfi2, study.design.worker_clusters
        ),
    }

    faulted = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS,
        use_cache=False, fault_plan=fault_plan(),
    )
    golden["faulted"] = {
        name: result_fingerprint(result)
        for name, result in faulted.results.items()
    }
    impact = faulted.result("vfi2_mesh").faults
    golden["fault_impact"] = impact.to_dict() if impact is not None else None

    horizon_s = study.result("nvfi_mesh").total_time_s
    composed = composed_study(horizon_s)
    golden["composed"] = {
        "horizon_s": horizon_s,
        "configs": {
            name: result_fingerprint(result)
            for name, result in composed.results.items()
        },
        "fault_impact": composed.result("vfi2_mesh").faults.to_dict(),
        "cap_impact": composed.result("vfi2_mesh").power.to_dict(),
    }

    out = os.path.join(os.path.dirname(__file__), "golden_64core.json")
    with open(out, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
