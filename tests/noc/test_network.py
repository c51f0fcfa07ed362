"""Flow model: latency composition, load sensitivity, energy accounting.

Loads go in through ``add_flows``; latency, capacity and energy come off
the all-pairs tables of :mod:`repro.noc.dense`, as in the simulator."""

import numpy as np
import pytest

from repro.noc.dense import DenseLatencyModel, PairwiseEnergy
from repro.noc.network import FlowNetworkModel, NocParams
from repro.noc.routing import build_mesh_routing, build_routing_table
from repro.noc.smallworld import build_small_world
from repro.noc.topology import GridGeometry, build_mesh
from repro.noc.wireless import assign_wireless_links
from repro.noc.placement import center_wireless_placement
from repro.vfi.islands import quadrant_clusters

from tests.noc.energy_calls import fold_transfer

GEO = GridGeometry(8, 8)
CLUSTERS = list(quadrant_clusters(GEO).node_cluster)
NOMINAL = [2.5e9] * 4


def mesh_model(freqs=NOMINAL, voltages=None):
    mesh = build_mesh(GEO)
    return FlowNetworkModel(
        mesh, build_mesh_routing(mesh), CLUSTERS, freqs, voltages
    )


def winoc_model(freqs=NOMINAL):
    wireline = build_small_world(GEO, CLUSTERS, seed=3)
    winoc = assign_wireless_links(
        wireline, center_wireless_placement(GEO, CLUSTERS)
    )
    return FlowNetworkModel(winoc, build_routing_table(winoc), CLUSTERS, freqs)


def latency(model, src, dst, payload_bits):
    """Packet latency (s) from *src* to *dst* under the current load."""
    dense = DenseLatencyModel(model)
    return dense.latency_matrices([payload_bits])[payload_bits][src, dst]


def path_capacity(model, src, dst):
    """Effective throughput (bits/s) of the path under the current load."""
    dense = DenseLatencyModel(model)
    inverse = dense.inverse_capacity(dense.utilization())
    return dense.pair_capacity(np.array([src]), np.array([dst]))(inverse)[0]


class TestLatency:
    def test_local_port(self):
        model = mesh_model()
        assert latency(model, 3, 3, 0) == pytest.approx(
            NocParams().router_pipeline_cycles / 2.5e9
        )

    def test_monotone_in_distance(self):
        model = mesh_model()
        near = latency(model, 0, 1, 544)
        far = latency(model, 0, 63, 544)
        assert far > near

    def test_monotone_in_payload(self):
        model = mesh_model()
        assert latency(model, 0, 63, 544) > latency(model, 0, 63, 64)

    def test_load_increases_latency(self):
        model = mesh_model()
        unloaded = latency(model, 0, 7, 544)
        model.add_flows([0], [7], [60e9])
        assert latency(model, 0, 7, 544) > unloaded

    def test_reset_flows_restores(self):
        model = mesh_model()
        unloaded = latency(model, 0, 7, 544)
        model.add_flows([0], [7], [60e9])
        model.reset_flows()
        assert latency(model, 0, 7, 544) == pytest.approx(unloaded)

    def test_slow_domain_raises_latency(self):
        slow = mesh_model([2.5e9, 2.5e9, 2.5e9, 1.5e9])
        fast = mesh_model()
        # Path entirely inside cluster 3 (bottom-right quadrant).
        assert latency(slow, 63, 62, 544) > latency(fast, 63, 62, 544)

    def test_domain_crossing_pays_sync(self):
        params = NocParams(domain_sync_cycles=40)
        mesh = build_mesh(GEO)
        model_sync = FlowNetworkModel(
            mesh, build_mesh_routing(mesh), CLUSTERS, NOMINAL, params=params
        )
        base = mesh_model()
        # 3 -> 4 crosses the cluster-0/cluster-1 boundary.
        extra = latency(model_sync, 3, 4, 64) - latency(base, 3, 4, 64)
        assert extra == pytest.approx((40 - NocParams().domain_sync_cycles) / 2.5e9)

    def test_wireless_cheaper_for_long_range_control(self):
        wmodel = winoc_model()
        mmodel = mesh_model()
        # corner-to-corner control packet: the WiNoC must not be slower
        # (a 17-flit data packet would serialize through the 16 Gbps
        # channel, which is why data uses the bulk class instead).
        assert latency(wmodel, 0, 63, 64) <= latency(mmodel, 0, 63, 64)


class TestFlows:
    def test_flow_accumulates_on_path_links(self):
        model = mesh_model()
        model.add_flows([0], [2], [10e9])
        loaded = model.load.link_load.sum()
        assert loaded == pytest.approx(2 * 10e9)  # two hops

    def test_zero_flow_noop(self):
        model = mesh_model()
        model.add_flows([0], [2], [0.0])
        assert model.load.link_load.sum() == 0.0

    def test_wireless_flow_charges_channel(self):
        model = winoc_model()
        # find a pair routed over wireless
        wireless = np.argwhere(PairwiseEnergy(model).wireless_links > 0)
        if not len(wireless):
            pytest.skip("no wireless route in this topology seed")
        src, dst = wireless[0]
        model.add_flows([src], [dst], [1e9])
        assert model.load.channel_load.sum() > 0

    def test_path_capacity_degrades_under_load(self):
        model = mesh_model()
        before = path_capacity(model, 0, 7)
        model.add_flows([0], [7], [60e9])
        assert path_capacity(model, 0, 7) < before


class TestEnergy:
    def test_transfer_energy_positive_and_accumulates(self):
        model = mesh_model()
        pairwise = PairwiseEnergy(model)
        e1 = fold_transfer(pairwise, 0, 63, 1e6)
        assert e1 > 0
        assert model.energy.dynamic_joules == pytest.approx(e1)
        fold_transfer(pairwise, 0, 63, 1e6)
        assert model.energy.dynamic_joules == pytest.approx(2 * e1)

    def test_longer_path_costs_more(self):
        pairwise = PairwiseEnergy(mesh_model())
        assert fold_transfer(pairwise, 0, 63, 1e6) > fold_transfer(
            pairwise, 0, 1, 1e6
        )

    def test_static_energy_scales_with_voltage(self):
        low = mesh_model(NOMINAL, [1.0, 1.0, 1.0, 0.6])
        high = mesh_model(NOMINAL, [1.0, 1.0, 1.0, 1.0])
        assert low.static_energy(1.0) < high.static_energy(1.0)

    def test_self_transfer_free(self):
        assert fold_transfer(PairwiseEnergy(mesh_model()), 5, 5, 1e6) == 0.0


class TestBulkRouting:
    def test_bulk_defaults_to_latency_routing_on_mesh(self):
        model = mesh_model()
        assert model.bulk_routing.path(0, 63) == model.routing.path(0, 63)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowNetworkModel(
                build_mesh(GEO),
                build_mesh_routing(build_mesh(GEO)),
                CLUSTERS[:10],
                NOMINAL,
            )
