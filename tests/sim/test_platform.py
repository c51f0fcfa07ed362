"""Platform wiring and accessors."""

import numpy as np
import pytest

from repro.core.design_flow import design_vfi
from repro.core.platforms import (
    build_nvfi_mesh,
    build_vfi_mesh,
    build_vfi_winoc,
    geometry_for,
)
from repro.energy.core_power import CorePowerParams
from repro.faults import FaultEngine, FaultKind, FaultPlan, FaultSpec
from repro.noc.network import FlowNetworkModel
from repro.power import CapGovernor, PowerCapSpec
from repro.sim.memory import MemorySystem
from repro.sim.platform import Platform
from repro.vfi.islands import DVFS_LADDER, NOMINAL


class TestNvfiMesh:
    def test_basics(self, nvfi_platform):
        assert nvfi_platform.num_cores == 64
        assert all(p == NOMINAL for p in nvfi_platform.vf_points)
        assert max(p.frequency_hz for p in nvfi_platform.vf_points) == (
            NOMINAL.frequency_hz
        )

    def test_identity_mapping(self, nvfi_platform):
        for worker in range(64):
            assert nvfi_platform.node_of_worker(worker) == worker

    def test_worker_frequencies(self, nvfi_platform):
        freqs = nvfi_platform.effective_worker_frequencies()
        assert len(freqs) == 64
        assert set(freqs) == {NOMINAL.frequency_hz}
        assert all(
            nvfi_platform.vf_of_worker(w).frequency_hz == f
            for w, f in enumerate(freqs)
        )

    def test_bulk_routing_defaults_to_latency_routing(self, nvfi_platform):
        # mesh has no wireless: bulk == latency routing
        network = MemorySystem(nvfi_platform, locality=0.0).network
        assert network.bulk_routing is nvfi_platform.routing


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
        assert bare.dvfs_ladder == DVFS_LADDER
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
        assert set(platform.effective_worker_frequencies()) == {
            DVFS_LADDER[0].frequency_hz
        }
        # original untouched
        assert all(p == NOMINAL for p in nvfi_platform.vf_points)


def _design16():
    rng = np.random.default_rng(4)
    traffic = rng.random((16, 16)) ** 2
    np.fill_diagonal(traffic, 0.0)
    utilization = np.clip(rng.normal(0.55, 0.05, 16), 0, 1)
    utilization[0] = 0.8
    return design_vfi(utilization, traffic, seed=2, structural_workers={0})


class TestPlatformsHoldNoRunState:
    def test_no_platform_or_view_builds_a_network(self, monkeypatch):
        """Builders, V/F and power copies, fault and cap views hold a
        fabric only: the one network is the memory system's."""
        built = []
        init = FlowNetworkModel.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FlowNetworkModel, "__init__", counted)
        geometry = geometry_for(16)
        design = _design16()
        base = build_nvfi_mesh(geometry)
        views = [
            base,
            build_vfi_mesh(design, "vfi2", geometry=geometry, seed=1),
            build_vfi_winoc(design, geometry=geometry, seed=4, sa_iterations=20),
            base.with_vf([DVFS_LADDER[0]] * base.layout.num_clusters),
            base.with_power(),
        ]
        throttle = FaultSpec(FaultKind.ISLAND_THROTTLE, 1.0, (0,), 1.0)
        engine = FaultEngine(base, FaultPlan(events=(throttle,)))
        engine.activate_due(2.0)
        views.append(engine.effective_platform())
        governor = CapGovernor(base, PowerCapSpec(chip_cap_w=10.0))
        governor.poll(0.0, np.zeros(base.num_cores))
        views.append(governor.effective_platform())
        assert len({id(view) for view in views}) == len(views)
        assert not built
        assert not any(hasattr(view, "network") for view in views)
        memory = MemorySystem(views[-1], locality=0.3)
        assert built == [memory.network]
        assert memory.network.fabric is base.fabric

    def test_memory_systems_on_one_platform_keep_separate_loads(self):
        platform = build_nvfi_mesh(geometry_for(16))
        loaded = MemorySystem(platform, locality=0.3)
        other = MemorySystem(platform, locality=0.3)
        before = other.l2_round_trip_all_s().copy()
        loaded.add_miss_flows_batch(np.full(platform.num_cores, 5e7))
        loaded.refresh_latencies()
        assert (loaded.l2_round_trip_all_s() > before).all()
        other.refresh_latencies()
        assert np.array_equal(other.l2_round_trip_all_s(), before)


class TestWinocPlatform:
    def test_bulk_routing_avoids_wireless(self):
        rng = np.random.default_rng(0)
        traffic = rng.random((64, 64))
        np.fill_diagonal(traffic, 0.0)
        utilization = rng.uniform(0.3, 0.8, 64)
        design = design_vfi(utilization, traffic, seed=1)
        platform = build_vfi_winoc(design, seed=5)

        _, hops, wireless_links = platform.fabric.pairwise(
            True, platform.noc_energy_params
        )
        for src, dst in [(0, 63), (7, 56), (20, 44)]:
            assert hops[src, dst] > 0
            assert wireless_links[src, dst] == 0
