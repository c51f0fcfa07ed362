"""XY routing, Dijkstra tables, weights."""

import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc.dense import PairwiseEnergy
from repro.noc.network import FlowNetworkModel
from repro.noc.placement import traffic_weighted_cost
from repro.noc.routing import (
    RoutingTable,
    build_mesh_routing,
    build_routing_table,
)
from repro.noc.topology import GridGeometry, build_mesh

import numpy as np

from tests.noc.path_oracle import xy_route

GEO = GridGeometry(8, 8)
MESH = build_mesh(GEO)
XY = build_mesh_routing(MESH)

nodes = st.integers(0, 63)


def table_hops(table):
    """The all-pairs hop table the simulator builds over *table*."""
    model = FlowNetworkModel(table.topology, table, [0] * 64, [2.5e9])
    return PairwiseEnergy(model).hops


class TestXyRoute:
    @given(nodes, nodes)
    def test_endpoints_and_length(self, src, dst):
        path = XY.path(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == GEO.manhattan_hops(src, dst)

    @given(nodes, nodes)
    def test_steps_are_grid_neighbours(self, src, dst):
        path = XY.path(src, dst)
        for a, b in zip(path, path[1:]):
            assert GEO.manhattan_hops(a, b) == 1

    @given(nodes, nodes)
    def test_x_before_y(self, src, dst):
        path = XY.path(src, dst)
        ys = [GEO.coordinates(n)[1] for n in path]
        # once y starts changing, x must be final
        changed = [i for i in range(1, len(ys)) if ys[i] != ys[i - 1]]
        if changed:
            first = changed[0]
            xs = [GEO.coordinates(n)[0] for n in path]
            assert all(x == xs[-1] for x in xs[first:])


class TestMeshRoutingTable:
    def test_matches_xy(self):
        """The synthesized XY predecessors route every pair exactly as
        the coordinate walk of the oracle does."""
        table = build_mesh_routing(MESH)
        for src in range(64):
            for dst in range(64):
                assert table.path(src, dst) == tuple(xy_route(GEO, src, dst))

    def test_self_path(self):
        table = build_mesh_routing(MESH)
        assert table.path(5, 5) == (5,)

    def test_hop_matrix_symmetric_in_count(self):
        hops = table_hops(build_mesh_routing(MESH))
        assert (hops == hops.T).all()
        assert hops.mean() == pytest.approx(5.25, abs=0.01)


class TestDijkstraTable:
    def test_mesh_dijkstra_matches_manhattan(self):
        table = build_routing_table(MESH)
        for src, dst in [(0, 63), (7, 56), (10, 53), (0, 1)]:
            assert table.hop_count(src, dst) == GEO.manhattan_hops(src, dst)

    def test_paths_walk_real_links(self):
        table = build_routing_table(MESH)
        path = table.path(0, 63)
        for a, b in zip(path, path[1:]):
            MESH.find_link(a, b)  # raises if absent

    def test_deterministic_across_builds(self):
        a = build_routing_table(MESH)
        b = build_routing_table(MESH)
        for src, dst in [(0, 63), (3, 42), (17, 20)]:
            assert a.path(src, dst) == b.path(src, dst)

    def test_disconnected_rejected(self):
        from repro.noc.topology import Link, Topology

        topo = Topology("broken", GridGeometry(2, 2), [Link(0, 1)])
        with pytest.raises(ValueError):
            build_routing_table(topo)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            build_routing_table(MESH, weight=lambda link: 0.0)


class TestHopMatrixConsistency:
    """The vectorized all-pairs hop table must equal per-pair path walks."""

    def test_mesh_matches_path_walks(self):
        table = build_mesh_routing(MESH)
        hops = table_hops(table)
        for src in range(0, 64, 7):
            for dst in range(64):
                assert hops[src, dst] == table.hop_count(src, dst)

    def test_dijkstra_matches_path_walks(self):
        from repro.noc.smallworld import build_small_world
        from repro.vfi.islands import quadrant_clusters

        topo = build_small_world(
            GEO, list(quadrant_clusters(GEO).node_cluster), seed=3
        )
        table = build_routing_table(topo)
        hops = table_hops(table)
        for src in range(0, 64, 7):
            for dst in range(64):
                assert hops[src, dst] == table.hop_count(src, dst)

    def test_cached_instance_reused(self):
        model = FlowNetworkModel(MESH, build_mesh_routing(MESH), [0] * 64, [2.5e9])
        assert PairwiseEnergy(model).hops is PairwiseEnergy(model).hops


class TestWeightedHops:
    def test_uniform_traffic(self):
        """On the mesh every wire weighs one hop, so the SA objective
        under uniform traffic is the mean hop count."""
        traffic = np.ones((64, 64))
        np.fill_diagonal(traffic, 0.0)
        # mean over off-diagonal pairs
        expected = table_hops(build_mesh_routing(MESH)).sum() / (64 * 63)
        assert traffic_weighted_cost(MESH, traffic) == pytest.approx(expected)


def _alarm(signum, frame):
    raise TimeoutError("route walk did not return")


class TestPredecessorCycle:
    """A walk that enters a predecessor cycle raises instead of hanging."""

    @pytest.fixture
    def cyclic(self):
        mesh = build_mesh(GridGeometry(4, 4))
        pred = build_routing_table(mesh).predecessor_matrix().copy()
        pred[0, 2] = 1
        pred[0, 1] = 2
        return RoutingTable(mesh, pred)

    @pytest.fixture(autouse=True)
    def deadline(self):
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(10)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_path_names_the_cycle(self, cyclic):
        with pytest.raises(RuntimeError, match=r"do not terminate.*cycle \[2 -> 1 -> 2\]"):
            cyclic.path(0, 2)

    def test_hop_count_raises_too(self, cyclic):
        with pytest.raises(RuntimeError, match="do not terminate"):
            cyclic.hop_count(0, 2)

    def test_routes_off_the_cycle_still_walk(self, cyclic):
        assert cyclic.path(0, 4) == (0, 4)
