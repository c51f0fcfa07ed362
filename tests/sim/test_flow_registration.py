"""Vectorized miss-flow registration vs the per-call reference."""

import numpy as np
import pytest

from repro.core.platforms import (
    build_nvfi_mesh,
    default_geometry,
    memory_params_for,
)
from repro.noc.placement import center_wireless_placement
from repro.noc.routing import build_routing_table
from repro.noc.smallworld import build_small_world
from repro.sim.memory import MemorySystem
from repro.sim.platform import Platform
from repro.vfi.islands import NOMINAL, quadrant_clusters

from tests.noc.path_oracle import PathModel
from tests.sim import kv_oracle


def winoc_platform():
    geometry = default_geometry()
    layout = quadrant_clusters(geometry)
    clusters = list(layout.node_cluster)
    wireline = build_small_world(geometry, clusters, seed=3)
    from repro.noc.wireless import assign_wireless_links

    winoc = assign_wireless_links(
        wireline, center_wireless_placement(geometry, clusters)
    )
    return Platform(
        name="winoc-test",
        layout=layout,
        vf_points=[NOMINAL] * layout.num_clusters,
        topology=winoc,
        routing=build_routing_table(winoc),
        memory_params=memory_params_for(geometry),
    )


def reference_miss_flows(memory, node, accesses_per_s):
    """The pre-vectorization per-bank add_flow loop."""
    network = PathModel(memory.platform.network)
    for bank in range(memory.num_nodes):
        share = accesses_per_s * memory.bank_prob[node, bank]
        if share <= 0:
            continue
        network.add_flow(node, bank, share * memory._ctrl_bits)
        network.add_flow(bank, node, share * memory._data_bits, bulk=True)


@pytest.fixture(
    scope="module", params=["mesh", "winoc"], ids=["mesh", "winoc"]
)
def memory(request):
    platform = (
        build_nvfi_mesh() if request.param == "mesh" else winoc_platform()
    )
    return MemorySystem(platform, locality=0.6)


class TestMissFlowEquivalence:
    def test_single_node_matches_reference(self, memory):
        network = memory.platform.network
        network.reset_flows()
        kv_oracle.add_miss_flows(memory, 13, 2.5e8)
        vec_link = network.load.link_load.copy()
        vec_chan = network.load.channel_load.copy()
        network.reset_flows()
        reference_miss_flows(memory, 13, 2.5e8)
        np.testing.assert_allclose(
            vec_link, network.load.link_load, rtol=1e-12, atol=1e-3
        )
        np.testing.assert_allclose(
            vec_chan, network.load.channel_load, rtol=1e-12, atol=1e-3
        )

    def test_batch_matches_per_node(self, memory):
        rng = np.random.default_rng(7)
        rates = rng.random(memory.num_nodes) * 1e8
        rates[::5] = 0.0
        network = memory.platform.network
        network.reset_flows()
        memory.add_miss_flows_batch(rates)
        vec_link = network.load.link_load.copy()
        vec_chan = network.load.channel_load.copy()
        network.reset_flows()
        for node, rate in enumerate(rates):
            reference_miss_flows(memory, node, float(rate))
        np.testing.assert_allclose(
            vec_link, network.load.link_load, rtol=1e-12, atol=1e-3
        )
        np.testing.assert_allclose(
            vec_chan, network.load.channel_load, rtol=1e-12, atol=1e-3
        )

    def test_zero_rates_are_noop(self, memory):
        network = memory.platform.network
        network.reset_flows()
        kv_oracle.add_miss_flows(memory, 0, 0.0)
        memory.add_miss_flows_batch(np.zeros(memory.num_nodes))
        assert not network.load.link_load.any()
        assert not network.load.channel_load.any()

    def test_validation(self, memory):
        with pytest.raises(ValueError):
            kv_oracle.add_miss_flows(memory, 0, -1.0)
        with pytest.raises(ValueError):
            memory.add_miss_flows_batch(np.full(memory.num_nodes, -1.0))
        with pytest.raises(ValueError):
            memory.add_miss_flows_batch(np.zeros(3))
