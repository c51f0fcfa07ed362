"""Topology mutation epochs and static-cache invalidation.

The flow-usage / dense-latency / pairwise-energy tables are cached in a
``static_cache`` dict that degraded platforms share with their base
platform (``FaultEngine.effective_platform``).  The cache keys embed the
topology's mutation epoch: a topology derived via ``with_links`` /
``without_links`` gets a fresh epoch, so its tables can never alias the
intact fabric's even inside one shared dict."""

import numpy as np
import pytest

from repro.noc.network import FlowNetworkModel
from repro.noc.routing import build_mesh_routing, build_routing_table
from repro.noc.topology import GridGeometry, build_mesh

from tests.noc.path_oracle import PathModel

GEO = GridGeometry(4, 4)


def model_for(topology, routing, shared_cache=None):
    model = FlowNetworkModel(
        topology, routing, [0] * 16, [2.5e9]
    )
    if shared_cache is not None:
        model.static_cache = shared_cache
    return model


class TestMutationEpoch:
    def test_fresh_build_has_epoch_zero(self):
        assert build_mesh(GEO).epoch == 0

    def test_derived_topologies_get_fresh_epochs(self):
        mesh = build_mesh(GEO)
        removed = mesh.without_links([frozenset((0, 1))])
        removed_again = mesh.without_links([frozenset((0, 1))])
        assert removed.epoch != mesh.epoch
        assert removed_again.epoch != removed.epoch

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
        """Regression: a degraded model sharing the base model's static
        cache must rebuild its batch tables, not reuse the intact ones."""
        mesh = build_mesh(GEO)
        base = model_for(mesh, build_mesh_routing(mesh))
        shared = base.static_cache

        degraded_topo = mesh.without_links([frozenset((0, 1))])
        degraded = model_for(
            degraded_topo, build_routing_table(degraded_topo), shared
        )

        # Same batch of flows through both models.
        src, dst, rate = [0, 3], [1, 12], [8e9, 4e9]
        base.add_flows(src, dst, rate)
        degraded.add_flows(src, dst, rate)

        # 0 -> 1 was a one-hop flow on the mesh; without the link it must
        # detour, loading strictly more link-hops in total.
        assert degraded.load.link_load.sum() > base.load.link_load.sum()
        # Both table variants coexist in the shared dict under distinct
        # epoch-bearing keys.
        usage_keys = [k for k in shared if k[0] == "flow_usage"]
        assert len(usage_keys) == 2
        epochs = {key[2] for key in usage_keys}
        assert epochs == {mesh.epoch, degraded_topo.epoch}

    def test_scalar_and_batch_agree_on_the_degraded_fabric(self):
        mesh = build_mesh(GEO)
        base = model_for(mesh, build_mesh_routing(mesh))
        degraded_topo = mesh.without_links([frozenset((0, 1))])
        routing = build_routing_table(degraded_topo)

        batch = model_for(degraded_topo, routing, base.static_cache)
        batch.add_flows([0], [1], [1e9])
        scalar = model_for(degraded_topo, routing, base.static_cache)
        PathModel(scalar).add_flow(0, 1, 1e9)
        np.testing.assert_allclose(
            batch.load.link_load, scalar.load.link_load, rtol=1e-12
        )

    def test_dense_latency_tables_do_not_alias(self):
        from repro.noc.dense import DenseLatencyModel

        mesh = build_mesh(GEO)
        base = model_for(mesh, build_mesh_routing(mesh))
        degraded_topo = mesh.without_links([frozenset((0, 1))])
        degraded = model_for(
            degraded_topo, build_routing_table(degraded_topo),
            base.static_cache,
        )
        base_latency = DenseLatencyModel(base).latency_matrices([544.0])[544.0]
        degraded_latency = DenseLatencyModel(degraded).latency_matrices(
            [544.0]
        )[544.0]
        # The severed pair detours, so it must be strictly slower.
        assert degraded_latency[0, 1] > base_latency[0, 1]
