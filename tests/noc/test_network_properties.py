"""Property-style invariants of the flow network model.

Loads go in through ``add_flows``; latency and energy come off the
all-pairs tables of :mod:`repro.noc.dense`, as in the simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.dense import PairwiseEnergy
from repro.noc.network import FlowNetworkModel
from repro.noc.routing import build_mesh_routing
from repro.noc.topology import GridGeometry, build_mesh
from repro.vfi.islands import quadrant_clusters

from tests.noc.energy_calls import fold_transfer
from tests.noc.path_oracle import PathModel
from tests.noc.test_network import latency

GEO = GridGeometry(8, 8)
CLUSTERS = list(quadrant_clusters(GEO).node_cluster)


def fresh_model(freqs=None):
    mesh = build_mesh(GEO)
    return FlowNetworkModel(
        mesh,
        build_mesh_routing(mesh),
        CLUSTERS,
        freqs or [2.5e9] * 4,
    )


nodes = st.integers(0, 63)


class TestLatencyProperties:
    @given(nodes, nodes)
    @settings(max_examples=40, deadline=None)
    def test_unloaded_latency_symmetric_on_uniform_mesh(self, a, b):
        model = fresh_model()
        assert latency(model, a, b, 544) == pytest.approx(
            latency(model, b, a, 544), rel=1e-9
        )

    @given(nodes, nodes, st.floats(0, 1e5))
    @settings(max_examples=40, deadline=None)
    def test_latency_positive_finite(self, a, b, payload):
        model = fresh_model()
        assert 0 < latency(model, a, b, payload) < 1e-3

    @given(nodes, nodes)
    @settings(max_examples=20, deadline=None)
    def test_more_load_never_faster(self, a, b):
        model = fresh_model()
        before = latency(model, a, b, 544)
        for node in range(0, 64, 4):
            model.add_flows([node], [(node + 17) % 64], [5e9])
        assert latency(model, a, b, 544) >= before - 1e-15

    @given(st.sampled_from([1.5e9, 1.75e9, 2.0e9, 2.25e9]))
    @settings(max_examples=10, deadline=None)
    def test_slower_clocks_never_faster(self, slow):
        nominal = fresh_model()
        slowed = fresh_model([slow] * 4)
        for a, b in [(0, 63), (10, 53)]:
            assert latency(slowed, a, b, 544) > latency(nominal, a, b, 544)


class TestFlowConservation:
    @given(nodes, nodes, st.floats(1e6, 1e10))
    @settings(max_examples=30, deadline=None)
    def test_flow_load_equals_rate_times_hops(self, a, b, rate):
        if a == b:
            return
        model = fresh_model()
        model.add_flows([a], [b], [rate])
        hops = model.routing.hop_count(a, b)
        assert model.load.link_load.sum() == pytest.approx(rate * hops, rel=1e-9)


class TestEnergyProperties:
    @given(nodes, nodes, st.floats(1.0, 1e8))
    @settings(max_examples=30, deadline=None)
    def test_energy_linear_in_bits(self, a, b, bits):
        if a == b:
            return
        pairwise = PairwiseEnergy(fresh_model())
        single = fold_transfer(pairwise, a, b, bits)
        double = fold_transfer(pairwise, a, b, 2 * bits)
        assert double == pytest.approx(2 * single, rel=1e-9)


#: A small batch of flows: (src, dst, rate) triples.
flow_batches = st.lists(
    st.tuples(nodes, nodes, st.floats(0, 1e9)), min_size=0, max_size=12
)


class TestFlowRegistrationProperties:
    @given(flow_batches)
    @settings(max_examples=40, deadline=None)
    def test_resource_loads_never_negative(self, flows):
        model = fresh_model()
        for src, dst, rate in flows:
            model.add_flows([src], [dst], [rate])
        assert (model.load.link_load >= 0).all()
        assert (model.load.channel_load >= 0).all()

    @given(flow_batches, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar_registration(self, flows, bulk):
        """``add_flows`` (sparse mat-vec) and a loop of the oracle's
        ``add_flow`` calls must produce identical link and channel loads."""
        scalar = PathModel(fresh_model())
        for src, dst, rate in flows:
            scalar.add_flow(src, dst, rate, bulk=bulk)
        batch = fresh_model()
        batch.add_flows(
            [f[0] for f in flows],
            [f[1] for f in flows],
            [f[2] for f in flows],
            bulk=bulk,
        )
        np.testing.assert_allclose(
            batch.load.link_load, scalar.load.link_load, rtol=1e-9, atol=1e-3
        )
        np.testing.assert_allclose(
            batch.load.channel_load, scalar.load.channel_load,
            rtol=1e-9, atol=1e-3,
        )

    @given(nodes, nodes, st.floats(1e6, 1e10))
    @settings(max_examples=30, deadline=None)
    def test_latency_monotone_in_offered_load(self, a, b, rate):
        """Adding one more flow never makes any pair faster."""
        if a == b:
            return
        model = fresh_model()
        probes = [(0, 63), (17, 42), (b, a)]
        before = [latency(model, x, y, 544) for x, y in probes]
        model.add_flows([a], [b], [rate])
        after = [latency(model, x, y, 544) for x, y in probes]
        for earlier, later in zip(before, after):
            assert later >= earlier - 1e-15

    @given(flow_batches)
    @settings(max_examples=20, deadline=None)
    def test_reset_restores_unloaded_latency(self, flows):
        model = fresh_model()
        baseline = latency(model, 0, 63, 544)
        for src, dst, rate in flows:
            model.add_flows([src], [dst], [rate])
        model.reset_flows()
        assert latency(model, 0, 63, 544) == pytest.approx(baseline, rel=1e-12)
