"""Cross-module integration invariants (16-core systems for speed)."""

import numpy as np
import pytest

from repro.core.experiment import run_app_study
from repro.core.serialization import design_to_dict
from repro.mapreduce.tasks import Phase

SCALE = 0.3
SEED = 9
WORKERS = 16


@pytest.fixture(scope="module")
def study():
    return run_app_study(
        "wordcount", scale=SCALE, seed=SEED, num_workers=WORKERS
    )


class TestEndToEndDeterminism:
    def test_identical_studies_identical_numbers(self, study):
        again = run_app_study(
            "wordcount", scale=SCALE, seed=SEED, num_workers=WORKERS,
            use_cache=False,
        )
        for config in study.results:
            assert study.result(config).total_time_s == pytest.approx(
                again.result(config).total_time_s, rel=1e-12
            )
            assert study.result(config).total_energy_j == pytest.approx(
                again.result(config).total_energy_j, rel=1e-12
            )
        assert design_to_dict(study.design) == design_to_dict(again.design)


class TestEnergyAccounting:
    @pytest.mark.parametrize(
        "config", ["nvfi_mesh", "vfi2_mesh", "vfi2_winoc"]
    )
    def test_breakdown_sums(self, study, config):
        result = study.result(config)
        energy = result.energy
        assert energy.total_j == pytest.approx(
            energy.core_dynamic_j
            + energy.core_static_j
            + energy.noc_dynamic_j
            + energy.noc_static_j
        )
        assert energy.core_j > energy.noc_j > 0

    def test_network_stats_consistent(self, study):
        result = study.result("vfi2_winoc")
        stats = result.network
        assert stats.energy_j == pytest.approx(
            result.energy.noc_dynamic_j + result.energy.noc_static_j
        )
        assert 0 <= stats.wireless_fraction <= 1
        assert stats.average_hops > 1


class TestCrossConfigPhysics:
    def test_vfi_energy_below_nvfi(self, study):
        assert (
            study.result("vfi2_mesh").total_energy_j
            < study.result("nvfi_mesh").total_energy_j
        )

    def test_winoc_hops_below_mesh(self, study):
        assert (
            study.result("vfi2_winoc").network.average_hops
            < study.result("vfi2_mesh").network.average_hops
        )

    def test_all_configs_same_committed_instructions(self, study):
        totals = [
            result.committed_instructions.sum()
            for result in study.results.values()
        ]
        assert np.allclose(totals, totals[0], rtol=1e-9)

    def test_phase_kinds_consistent_across_configs(self, study):
        kinds = {
            config: {p.phase for p in result.phases}
            for config, result in study.results.items()
        }
        reference = kinds.pop("nvfi_mesh")
        assert Phase.MAP in reference
        for config, value in kinds.items():
            assert value == reference, config


class TestDesignPlatformCoherence:
    def test_policy_matches_platform_frequencies(self, study):
        from repro.core.platforms import build_vfi_mesh, geometry_for
        from repro.utils.rng import spawn_seed

        platform = build_vfi_mesh(
            study.design,
            "vfi2",
            geometry=geometry_for(WORKERS),
            seed=spawn_seed(SEED, "wordcount", "mapping"),
        )
        policy = study.design.stealing_policy("vfi2")
        assert policy.core_frequencies_hz == [
            study.design.vfi2.points[cluster].frequency_hz
            for cluster in study.design.worker_clusters
        ]
        # and the platform realizes those frequencies through the mapping
        for worker in range(WORKERS):
            assert platform.vf_of_worker(worker).frequency_hz == pytest.approx(
                policy.core_frequencies_hz[worker]
            )
