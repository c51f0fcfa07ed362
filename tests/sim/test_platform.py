"""Platform wiring and accessors."""

import pytest

from repro.core.platforms import build_nvfi_mesh, build_vfi_mesh, build_vfi_winoc
from repro.energy.core_power import CorePowerParams
from repro.sim.platform import Platform
from repro.vfi.islands import DVFS_LADDER, NOMINAL


class TestNvfiMesh:
    def test_basics(self, nvfi_platform):
        assert nvfi_platform.num_cores == 64
        assert nvfi_platform.fmax_hz == NOMINAL.frequency_hz
        assert all(p == NOMINAL for p in nvfi_platform.vf_points)

    def test_identity_mapping(self, nvfi_platform):
        for worker in range(64):
            assert nvfi_platform.node_of_worker(worker) == worker

    def test_worker_frequencies(self, nvfi_platform):
        freqs = nvfi_platform.worker_frequencies()
        assert len(freqs) == 64
        assert set(freqs) == {NOMINAL.frequency_hz}

    def test_bulk_routing_defaults_to_latency_routing(self, nvfi_platform):
        # mesh has no wireless: bulk == latency routing
        assert nvfi_platform.network.bulk_routing is nvfi_platform.routing


class TestValidation:
    def test_vf_count_checked(self, nvfi_platform):
        with pytest.raises(ValueError):
            Platform(
                name="bad",
                layout=nvfi_platform.layout,
                vf_points=[NOMINAL] * 3,
                topology=nvfi_platform.topology,
                routing=nvfi_platform.routing,
            )

    def test_unset_tech_fields_take_the_paper_values(self, nvfi_platform):
        bare = Platform(
            name="bare",
            layout=nvfi_platform.layout,
            vf_points=[NOMINAL] * 4,
            topology=nvfi_platform.topology,
            routing=nvfi_platform.routing,
        )
        assert bare.ladder == DVFS_LADDER
        assert bare.island_core_power == (CorePowerParams(),) * 4
        assert bare.perf_scales == (1.0,) * 4
        # A shared power override replaces the per-island table.
        heavy = CorePowerParams(dynamic_w_nominal=3.0)
        swapped = bare.with_power(core_power_params=heavy)
        assert swapped.island_core_power == (heavy,) * 4
        assert swapped.core_power_of(3).params == heavy
        with pytest.raises(ValueError, match="3 perf scales for 4 islands"):
            Platform(
                name="bad",
                layout=nvfi_platform.layout,
                vf_points=[NOMINAL] * 4,
                topology=nvfi_platform.topology,
                routing=nvfi_platform.routing,
                perf_scales=(1.0,) * 3,
            )

    def test_with_vf(self, nvfi_platform):
        low = [DVFS_LADDER[0]] * 4
        platform = nvfi_platform.with_vf(low, name="slow")
        assert platform.name == "slow"
        assert platform.fmax_hz == DVFS_LADDER[0].frequency_hz
        # original untouched
        assert nvfi_platform.fmax_hz == NOMINAL.frequency_hz


class TestWinocPlatform:
    def test_bulk_routing_avoids_wireless(self):
        import numpy as np

        from repro.core.design_flow import design_vfi
        from repro.noc.dense import PairwiseEnergy

        rng = np.random.default_rng(0)
        traffic = rng.random((64, 64))
        np.fill_diagonal(traffic, 0.0)
        utilization = rng.uniform(0.3, 0.8, 64)
        design = design_vfi(utilization, traffic, seed=1)
        platform = build_vfi_winoc(design, seed=5)

        bulk = PairwiseEnergy(platform.network, bulk=True)
        for src, dst in [(0, 63), (7, 56), (20, 44)]:
            assert bulk.hops[src, dst] > 0
            assert bulk.wireless_links[src, dst] == 0
