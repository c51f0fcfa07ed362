"""One fabric per die, clocks applied on top.

Every platform over the same topology and routing shares one
:class:`repro.noc.fabric.Fabric`: the routing walks and clock-free
tables are built once, and each distinct clock vector's tables once on
top of them.  These tests count the work a study, a derived platform
and a cap governor actually do.
"""

import gc
import hashlib
from collections import Counter

import numpy as np
import pytest

import repro.core.experiment as experiment
import repro.core.platforms as platforms
import repro.noc.calibration as calibration
import repro.noc.dense as dense
import repro.noc.fabric as fabric
from repro.core.experiment import run_app_study
from repro.core.platforms import build_nvfi_mesh, die_for, geometry_for
from repro.faults import FaultEngine, FaultKind, FaultPlan, FaultSpec
from repro.noc.energy import NocEnergyParams
from repro.noc.routing import build_mesh_routing
from repro.noc.topology import build_mesh
from repro.power import CapGovernor, PowerCapSpec
from repro.sim.memory import MemorySystem
from repro.vfi.islands import DVFS_LADDER


def _digest(pred_rows):
    return hashlib.sha256(np.ascontiguousarray(pred_rows).tobytes()).hexdigest()


class TestCleanStudy:
    @pytest.fixture(scope="class")
    def counts(self):
        """Walks per routing (by predecessor content), split into the
        calibration's candidate routings and the study's platforms, the
        communication-aware mapping runs, and the three mesh platforms
        and the WiNoC platform of one clean study."""
        walks = {"calibration": Counter(), "platforms": Counter()}
        mappings = []
        calibrating = []
        meshes = []
        walk, channel_loads = fabric.forward_steps, calibration.channel_utilizations
        mapping = platforms.communication_aware_mapping
        builders = {
            name: getattr(experiment, name)
            for name in ("build_nvfi_mesh", "build_vfi_mesh", "build_vfi_winoc")
        }

        def counted_walk(pred_rows, srcs, n):
            side = "calibration" if calibrating else "platforms"
            walks[side][_digest(pred_rows)] += 1
            return walk(pred_rows, srcs, n)

        def counted_loads(*args, **kwargs):
            calibrating.append(True)
            try:
                return channel_loads(*args, **kwargs)
            finally:
                calibrating.pop()

        def counted_mapping(*args, **kwargs):
            mappings.append(kwargs.get("seed"))
            return mapping(*args, **kwargs)

        def kept(build):
            def build_and_keep(*args, **kwargs):
                meshes.append(build(*args, **kwargs))
                return meshes[-1]
            return build_and_keep

        patch = pytest.MonkeyPatch()
        patch.setattr(fabric, "forward_steps", counted_walk)
        patch.setattr(calibration, "channel_utilizations", counted_loads)
        patch.setattr(platforms, "communication_aware_mapping", counted_mapping)
        for name, build in builders.items():
            patch.setattr(experiment, name, kept(build))
        # No fabric of an earlier test may linger unreferenced.
        gc.collect()
        try:
            run_app_study(
                "histogram", scale=0.05, seed=9, num_workers=64, use_cache=False
            )
        finally:
            patch.undo()
        return walks, mappings, meshes

    def test_the_three_meshes_share_one_walk(self, counts):
        walks, _, platforms = counts
        meshes = platforms[:3]
        assert len(meshes) == 3
        assert len({id(p.network.fabric) for p in meshes}) == 1
        mesh = build_mesh(die_for(64).grid())
        pred = build_mesh_routing(mesh).predecessor_matrix()
        assert walks["platforms"][_digest(pred)] == 1

    def test_each_distinct_routing_is_walked_once(self, counts):
        walks, _, platforms = counts
        winoc = platforms[3]
        every = walks["calibration"] + walks["platforms"]
        # Calibration and platforms together walk each distinct routing
        # exactly once: the calibration prices its candidates on the
        # fabric the WiNoC platform then adopts.
        assert set(every.values()) == {1}
        latency = _digest(winoc.routing.predecessor_matrix())
        bulk = _digest(winoc.network.fabric.bulk_routing.predecessor_matrix())
        assert latency in walks["calibration"]
        assert latency not in walks["platforms"]
        # The platforms walk the mesh and the WiNoC's bulk routing.
        assert len(walks["platforms"]) == 2 and bulk in walks["platforms"]

    def test_one_mapping_serves_both_vfi_meshes(self, counts):
        _, mappings, platforms = counts
        assert len(mappings) == 1
        assert platforms[1].mapping is platforms[2].mapping


def test_no_fabric_outlives_its_study():
    """Fabrics live only while a network uses them: once an uncached
    study has returned and the collector has run, none of its fabrics
    is left (in a fresh process ``_FABRICS`` is empty then; here any
    fabric an earlier test still holds may stay)."""
    gc.collect()
    before = list(fabric._FABRICS.values())  # held, so no id is reused
    run_app_study("histogram", scale=0.05, seed=9, num_workers=16, use_cache=False)
    gc.collect()
    assert {id(live) for live in fabric._FABRICS.values()} <= set(map(id, before))


class TestUsageIsFlowUsageWithoutWireless:
    def test_mesh_holds_one_csr(self):
        mesh = build_nvfi_mesh(geometry_for(16)).network.fabric
        for bulk in (False, True):
            assert mesh.usage(bulk)[0] is mesh.flow_usage(bulk)

    def test_winoc_keeps_both(self):
        from tests.sim.test_flow_registration import winoc_platform

        winoc = winoc_platform().network.fabric
        for bulk in (False, True):
            assert winoc.usage(bulk)[0] is not winoc.flow_usage(bulk)


class TestDerivedPlatformsShareTheFabric:
    @pytest.fixture(scope="class")
    def base(self):
        return build_nvfi_mesh(geometry_for(16))

    def test_with_vf_and_with_power(self, base):
        slower = base.with_vf([DVFS_LADDER[0]] * base.layout.num_clusters)
        assert slower.network.fabric is base.network.fabric
        repowered = base.with_power()
        assert repowered.network.fabric is base.network.fabric

    def test_with_power_prices_energy_with_its_own_constants(self, base):
        # One fabric, two sets of energy constants: each memory system
        # reads the expectations of its own (doubling every per-bit
        # energy doubles them exactly).
        params = base.noc_energy_params
        doubled = base.with_power(noc_energy_params=NocEnergyParams(
            router_pj_per_bit=2 * params.router_pj_per_bit,
            wire_pj_per_bit_per_mm=2 * params.wire_pj_per_bit_per_mm,
            wireless_pj_per_bit=2 * params.wireless_pj_per_bit,
        ))
        assert doubled.network.fabric is base.network.fabric
        once = MemorySystem(base, locality=0.4)
        twice = MemorySystem(doubled, locality=0.4)
        assert np.array_equal(twice._e_l2, 2 * once._e_l2)
        assert np.array_equal(twice._e_mem, 2 * once._e_mem)
        assert np.array_equal(twice._h_l2, once._h_l2)

    def test_fault_views(self, base):
        throttle = FaultSpec(FaultKind.ISLAND_THROTTLE, 1.0, (0,), 1.0)
        engine = FaultEngine(base, FaultPlan(events=(throttle,)))
        engine.activate_due(2.0)
        throttled = engine.effective_platform()
        assert throttled is not base
        assert throttled.network.fabric is base.network.fabric
        # A view that lost a link is another fabric.
        drop = FaultSpec(FaultKind.LINK_FAILURE, 1.0, (0, 1))
        engine = FaultEngine(base, FaultPlan(events=(drop,)))
        engine.activate_due(2.0)
        degraded = engine.effective_platform()
        assert degraded.network.fabric is not base.network.fabric

    def test_capped_view(self, base):
        governor = CapGovernor(base, PowerCapSpec(chip_cap_w=10.0))
        governor.poll(0.0, np.zeros(base.num_cores))
        capped = governor.effective_platform()
        assert capped is not base
        assert capped.network.fabric is base.network.fabric


def test_alternating_governor_builds_each_clock_set_once(monkeypatch):
    """A governor stepping between two assignments, with a fresh memory
    system at every switch (as the simulator does), builds each
    assignment's per-clock tables once and finds them again."""
    base = build_nvfi_mesh(geometry_for(16))
    builds = Counter()
    clocked = dense._clocked_tables

    def counted(model, bulk, capacity):
        builds[model.clock_key] += 1
        return clocked(model, bulk, capacity)

    monkeypatch.setattr(dense, "_clocked_tables", counted)
    governor = CapGovernor(base, PowerCapSpec(chip_cap_w=20.0))
    busy = np.zeros(base.num_cores)
    heads = []
    for boundary in range(4):
        if boundary % 2 == 0:
            busy += 1.0  # flat out: the cap binds
        governor.poll(float(boundary + 1), busy)  # else idle: re-raise
        platform = governor.effective_platform()
        platform.network = platform.build_network()
        heads.append(MemorySystem(platform, locality=0.3).dense._head)
    throttled, relaxed = heads[0], heads[1]
    assert throttled is not relaxed
    assert heads[2] is throttled and heads[3] is relaxed
    assert max(builds.values(), default=0) == 1
