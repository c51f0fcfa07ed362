"""WI placement: center methodology and SA hop-count optimization."""

import numpy as np
import pytest

from repro.noc.placement import (
    center_wireless_placement,
    optimize_wireless_placement,
    traffic_weighted_cost,
)
from repro.noc.smallworld import build_small_world
from repro.noc.topology import GridGeometry
from repro.noc.wireless import assign_wireless_links
from repro.vfi.islands import quadrant_clusters

GEO = GridGeometry(8, 8)
CLUSTERS = list(quadrant_clusters(GEO).node_cluster)


@pytest.fixture(scope="module")
def wireline():
    return build_small_world(GEO, CLUSTERS, seed=3)


class TestCenterPlacement:
    def test_one_wi_per_cluster_per_channel(self):
        placement = center_wireless_placement(GEO, CLUSTERS)
        for channel, nodes in placement.items():
            assert len(nodes) == 4
            assert sorted(CLUSTERS[n] for n in nodes) == [0, 1, 2, 3]

    def test_no_node_reuse(self):
        placement = center_wireless_placement(GEO, CLUSTERS)
        all_nodes = [n for nodes in placement.values() for n in nodes]
        assert len(all_nodes) == len(set(all_nodes)) == 12

    def test_wis_near_cluster_centers(self):
        placement = center_wireless_placement(GEO, CLUSTERS)
        for nodes in placement.values():
            for node in nodes:
                cid = CLUSTERS[node]
                members = [n for n in range(64) if CLUSTERS[n] == cid]
                coords = np.array([GEO.coordinates(n) for n in members])
                centroid = coords.mean(axis=0)
                distance = np.linalg.norm(np.array(GEO.coordinates(node)) - centroid)
                assert distance <= 1.6  # inner 2x2 block of a 4x4 quadrant

    def test_deterministic(self):
        assert center_wireless_placement(GEO, CLUSTERS) == center_wireless_placement(
            GEO, CLUSTERS
        )


class TestSaPlacement:
    def test_never_worse_than_center_start(self, wireline):
        rng = np.random.default_rng(0)
        traffic = rng.random((64, 64)) ** 3
        np.fill_diagonal(traffic, 0.0)
        center = center_wireless_placement(GEO, CLUSTERS)
        center_cost = traffic_weighted_cost(
            assign_wireless_links(wireline, center), traffic
        )
        best = optimize_wireless_placement(
            wireline, CLUSTERS, traffic, iterations=120, seed=1
        )
        best_cost = traffic_weighted_cost(
            assign_wireless_links(wireline, best), traffic
        )
        assert best_cost <= center_cost + 1e-12

    def test_respects_cluster_structure(self, wireline):
        traffic = np.ones((64, 64))
        np.fill_diagonal(traffic, 0.0)
        placement = optimize_wireless_placement(
            wireline, CLUSTERS, traffic, iterations=60, seed=2
        )
        for channel, nodes in placement.items():
            assert sorted(CLUSTERS[n] for n in nodes) == [0, 1, 2, 3]
        all_nodes = [n for nodes in placement.values() for n in nodes]
        assert len(set(all_nodes)) == 12

    def test_deterministic_given_seed(self, wireline):
        traffic = np.ones((64, 64))
        np.fill_diagonal(traffic, 0.0)
        a = optimize_wireless_placement(wireline, CLUSTERS, traffic, iterations=40, seed=5)
        b = optimize_wireless_placement(wireline, CLUSTERS, traffic, iterations=40, seed=5)
        assert a == b


class TestCostFunction:
    def test_zero_traffic(self, wireline):
        assert traffic_weighted_cost(wireline, np.zeros((64, 64))) == 0.0

    def test_shape_check(self, wireline):
        with pytest.raises(ValueError):
            traffic_weighted_cost(wireline, np.ones((8, 8)))


class TestSaRegression:
    """Pinned SA outcome under its objective, ``traffic_weighted_cost``.

    Any drift in the objective or in the annealer's move sequence would
    move the annealer to a different placement.
    """

    GOLDEN_PLACEMENT = {
        0: [4, 9, 43, 47],
        1: [5, 25, 58, 62],
        2: [19, 30, 37, 41],
    }
    GOLDEN_COST = 3.645944309513306

    def test_placement_and_cost_unchanged(self, wireline):
        rng = np.random.default_rng(5)
        traffic = rng.random((64, 64)) * 1e6
        np.fill_diagonal(traffic, 0.0)

        placement = optimize_wireless_placement(
            wireline, CLUSTERS, traffic, iterations=60, seed=17,
        )
        assert {k: sorted(v) for k, v in placement.items()} == {
            k: sorted(v) for k, v in self.GOLDEN_PLACEMENT.items()
        }
        cost = traffic_weighted_cost(
            assign_wireless_links(wireline, placement), traffic
        )
        assert cost == pytest.approx(self.GOLDEN_COST, rel=1e-9)
