"""Extension beyond the paper: phase-adaptive VFI.

The paper's Sec. 1 motivates VFIs with the per-stage variability of
MapReduce but evaluates static per-application assignments.  This
benchmark evaluates per-phase schedules that park non-master islands at
the DVFS floor during the serial phases (library init, merge funnel).

Expected shape: the merge/lib-init-heavy application (PCA) gains EDP;
map-dominated apps are roughly neutral (little serial time to harvest)."""

from conftest import SEED, write_result

from repro.analysis.tables import format_table
from repro.core.platforms import build_vfi_mesh
from repro.sim import SimulationParams, phase_adaptive_schedule, simulate
from repro.utils.rng import spawn_seed


def test_phase_adaptive_vfi(benchmark, studies, results_dir):
    def sweep():
        out = {}
        for name in ("pca", "histogram", "matrix_multiply", "wordcount"):
            study = studies[name]
            platform = build_vfi_mesh(
                study.design, "vfi2", seed=spawn_seed(SEED, name, "mapping")
            )
            adaptive = simulate(
                platform,
                study.trace,
                locality=study.app.profile.l2_locality,
                stealing_policy=study.design.stealing_policy("vfi2"),
                params=SimulationParams(
                    vf_schedule=phase_adaptive_schedule(study.design)
                ),
            )
            nvfi = study.result("nvfi_mesh")
            static = study.result("vfi2_mesh")
            out[study.label] = {
                "static": (static.total_time_s / nvfi.total_time_s,
                           static.edp / nvfi.edp),
                "adaptive": (adaptive.total_time_s / nvfi.total_time_s,
                             adaptive.edp / nvfi.edp),
            }
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        {
            "app": label,
            "static T": f"{entry['static'][0]:.3f}",
            "static EDP": f"{entry['static'][1]:.3f}",
            "adaptive T": f"{entry['adaptive'][0]:.3f}",
            "adaptive EDP": f"{entry['adaptive'][1]:.3f}",
        }
        for label, entry in data.items()
    ]
    write_result(results_dir, "extension_phase_adaptive.txt", format_table(rows))

    # PCA (long merge + lib init) gains EDP from phase adaptation.
    assert data["PCA"]["adaptive"][1] < data["PCA"]["static"][1]
    # Nothing regresses by more than ~2% EDP or ~2% time.
    for label, entry in data.items():
        assert entry["adaptive"][1] <= entry["static"][1] * 1.02, label
        assert entry["adaptive"][0] <= entry["static"][0] * 1.02, label
