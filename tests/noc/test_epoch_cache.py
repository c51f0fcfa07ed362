"""Derived topologies and fabric sharing.

The flow-usage / dense-latency / pairwise-energy tables live in a
:class:`repro.noc.fabric.Fabric`, which every network over the same
content shares (:func:`repro.noc.fabric.fabric_for`): die geometry,
link list, routing predecessors, wireless channel count and table
layout.  A derived topology (``with_links`` / ``without_links``, as the
fault engine derives a degraded one) is other content, so its tables
never alias the intact fabric's -- and neither do those of a mesh and a
small-world fabric with as many links, which a key on the link count
would mix up."""

import gc
import weakref

import numpy as np
import pytest

from repro.noc.dense import DenseLatencyModel, PairwiseEnergy
from repro.noc.fabric import _FABRICS, fabric_for
from repro.noc.network import FlowNetworkModel
from repro.noc.routing import build_mesh_routing, build_routing_table
from repro.noc.smallworld import SmallWorldConfig, build_small_world
from repro.noc.topology import GridGeometry, Link, LinkKind, build_mesh

from tests.noc.path_oracle import PathModel

GEO = GridGeometry(4, 4)


def model_for(topology, routing, clusters=None):
    clusters = clusters or [0] * topology.num_nodes
    return FlowNetworkModel(
        topology, routing, clusters, [2.5e9] * (max(clusters) + 1)
    )


class TestMutationEpoch:
    """A topology's content is its version: no counter rides along."""

    def test_fresh_build_has_epoch_zero(self):
        # Every fresh build is the unmutated die, so equal builds are
        # one content and ``fabric_for`` hands them one fabric.
        first, second = build_mesh(GEO), build_mesh(GEO)
        assert not hasattr(first, "epoch")
        network = model_for(first, build_mesh_routing(first))
        channels = network.wireless.num_channels
        assert fabric_for(
            second, build_mesh_routing(second), channels, network.params
        ) is network.fabric

    def test_derived_topologies_get_fresh_epochs(self):
        mesh = build_mesh(GEO)
        removed = mesh.without_links([frozenset((0, 1))])
        removed_again = mesh.without_links([frozenset((0, 1))])
        added = mesh.with_links([Link(0, 15, LinkKind.WIRELESS, channel=0)])
        base = model_for(mesh, build_mesh_routing(mesh))
        fabrics = [
            model_for(topology, build_routing_table(topology)).fabric
            for topology in (removed, removed_again, added)
        ]
        assert all(fabric is not base.fabric for fabric in fabrics)
        assert fabrics[2] is not fabrics[0]
        # Equal content, one fabric: deriving twice does not split it.
        assert fabrics[1] is fabrics[0]

    def test_without_links_drops_exactly_the_requested_links(self):
        mesh = build_mesh(GEO)
        removed = mesh.without_links([frozenset((0, 1)), frozenset((5, 6))])
        kept = {link.key for link in removed.links}
        assert frozenset((0, 1)) not in kept
        assert frozenset((5, 6)) not in kept
        assert len(removed.links) == len(mesh.links) - 2

    def test_without_links_rejects_unknown_keys(self):
        mesh = build_mesh(GEO)
        with pytest.raises(KeyError, match="0, 15"):
            mesh.without_links([frozenset((0, 15))])


class TestSharedCacheInvalidation:
    def test_removing_a_link_recomputes_flow_usage(self):
        """Regression: a degraded model must get its own tables, not
        the intact fabric's."""
        mesh = build_mesh(GEO)
        base = model_for(mesh, build_mesh_routing(mesh))
        degraded_topo = mesh.without_links([frozenset((0, 1))])
        degraded = model_for(degraded_topo, build_routing_table(degraded_topo))
        assert degraded.fabric is not base.fabric

        # Same batch of flows through both models.
        src, dst, rate = [0, 3], [1, 12], [8e9, 4e9]
        base.add_flows(src, dst, rate)
        degraded.add_flows(src, dst, rate)

        # 0 -> 1 was a one-hop flow on the mesh; without the link it must
        # detour, loading strictly more link-hops in total.
        assert degraded.load.link_load.sum() > base.load.link_load.sum()
        # Both table variants coexist, one per fabric.
        assert base.fabric.flow_usage().shape != degraded.fabric.flow_usage().shape

    def test_scalar_and_batch_agree_on_the_degraded_fabric(self):
        mesh = build_mesh(GEO)
        base = model_for(mesh, build_mesh_routing(mesh))
        base.add_flows([0], [1], [1e9])  # the intact tables exist first
        degraded_topo = mesh.without_links([frozenset((0, 1))])
        routing = build_routing_table(degraded_topo)

        batch = model_for(degraded_topo, routing)
        batch.add_flows([0], [1], [1e9])
        scalar = model_for(degraded_topo, routing)
        PathModel(scalar).add_flow(0, 1, 1e9)
        np.testing.assert_allclose(
            batch.load.link_load, scalar.load.link_load, rtol=1e-12
        )

    def test_dense_latency_tables_do_not_alias(self):
        mesh = build_mesh(GEO)
        base = model_for(mesh, build_mesh_routing(mesh))
        degraded_topo = mesh.without_links([frozenset((0, 1))])
        degraded = model_for(degraded_topo, build_routing_table(degraded_topo))
        base_latency = DenseLatencyModel(base).latency_matrices([544.0])[544.0]
        degraded_latency = DenseLatencyModel(degraded).latency_matrices(
            [544.0]
        )[544.0]
        # The severed pair detours, so it must be strictly slower.
        assert degraded_latency[0, 1] > base_latency[0, 1]


class TestFabricSharing:
    def test_separately_built_equal_meshes_share_one_fabric(self):
        first = build_mesh(GEO)
        second = build_mesh(GEO)
        a = model_for(first, build_mesh_routing(first))
        b = model_for(second, build_mesh_routing(second))
        assert a.fabric is b.fabric
        assert DenseLatencyModel(a)._usage is DenseLatencyModel(b)._usage

    def test_meshes_with_equal_link_counts_never_share(self):
        # Same grid, same routing, same link count: only the wire
        # lengths differ, and with them the transfer energy.
        near = build_mesh(GridGeometry(4, 4, pitch_mm=2.5))
        far = build_mesh(GridGeometry(4, 4, pitch_mm=3.0))
        assert len(near.links) == len(far.links)
        a = model_for(near, build_mesh_routing(near))
        b = model_for(far, build_mesh_routing(far))
        assert a.fabric is not b.fabric
        assert (
            PairwiseEnergy(b).energy_per_bit[0, 15]
            > PairwiseEnergy(a).energy_per_bit[0, 15]
        )

    def test_mesh_and_small_world_with_equal_link_counts_never_share(self):
        from repro.vfi.islands import quadrant_clusters

        grid = GridGeometry(8, 8)
        clusters = list(quadrant_clusters(grid).node_cluster)
        mesh = build_mesh(grid)
        small_world = build_small_world(
            grid, clusters, config=SmallWorldConfig(k_intra=3.0, k_inter=0.5),
            seed=2,
        )
        assert len(small_world.links) == len(mesh.links) == 112
        a = model_for(mesh, build_mesh_routing(mesh), clusters)
        b = model_for(small_world, build_routing_table(small_world), clusters)
        assert a.fabric is not b.fabric
        assert not np.array_equal(
            PairwiseEnergy(a).hops, PairwiseEnergy(b).hops
        )

    def test_two_routings_of_one_topology_never_share(self):
        # Calibration weighs the wireless channels differently per
        # candidate routing: same topology, other predecessors.
        from repro.noc.calibration import make_weight_fn

        grid = GridGeometry(4, 4)
        winoc = build_mesh(grid).with_links(
            [Link(0, 15, LinkKind.WIRELESS, channel=0)]
        )
        cheap = build_routing_table(winoc, weight=make_weight_fn({0: 1.2}))
        dear = build_routing_table(winoc, weight=make_weight_fn({0: 50.0}))
        assert not np.array_equal(
            cheap.predecessor_matrix(), dear.predecessor_matrix()
        )
        a, b = model_for(winoc, cheap), model_for(winoc, dear)
        assert a.fabric is not b.fabric
        assert (a.fabric.flow_usage() != b.fabric.flow_usage()).nnz

    def test_a_link_the_routing_skips_still_keys_its_own_fabric(self):
        # Same die and same XY routes, but one more (unused) wireless
        # link: its fabric routes the bulk class apart.
        mesh = build_mesh(GEO)
        with_radio = mesh.with_links(
            [Link(0, 15, LinkKind.WIRELESS, channel=0)]
        )
        a = model_for(mesh, build_mesh_routing(mesh))
        b = model_for(with_radio, build_mesh_routing(with_radio))
        assert a.fabric is not b.fabric
        assert b.bulk_routing is not b.routing and a.bulk_routing is a.routing

    def test_a_wireless_channel_count_keys_its_own_fabric(self):
        # The channel count sizes every table's resource columns.
        from repro.noc.wireless import WirelessSpec

        mesh = build_mesh(GEO)
        routing = build_mesh_routing(mesh)
        three = model_for(mesh, routing)
        one = FlowNetworkModel(
            mesh, routing, [0] * 16, [2.5e9],
            wireless=WirelessSpec(num_channels=1),
        )
        assert one.fabric is not three.fabric
        assert one.fabric.num_resources == three.fabric.num_resources - 2
        one.add_flows([0], [15], [1e9])

    def test_a_fabric_lives_only_while_a_network_uses_it(self):
        # A die no other test builds, so no other network holds it.
        mesh = build_mesh(GridGeometry(3, 5, pitch_mm=1.7))
        model = model_for(mesh, build_mesh_routing(mesh))
        DenseLatencyModel(model)
        fabric = weakref.ref(model.fabric)
        assert any(f is fabric() for f in _FABRICS.values())
        del model
        gc.collect()
        assert fabric() is None
