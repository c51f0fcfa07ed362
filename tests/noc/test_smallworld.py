"""Constrained small-world construction (paper Sec. 5)."""

import numpy as np
import pytest

from repro.noc.smallworld import (
    SmallWorldConfig,
    _inter_cluster_quotas,
    build_small_world,
)


@pytest.fixture(scope="module")
def small_world(geometry_module, quadrants_module):
    return build_small_world(geometry_module, quadrants_module, seed=3)


@pytest.fixture(scope="module")
def geometry_module():
    from repro.noc.topology import GridGeometry

    return GridGeometry(8, 8)


@pytest.fixture(scope="module")
def quadrants_module(geometry_module):
    from repro.vfi.islands import quadrant_clusters

    return list(quadrant_clusters(geometry_module).node_cluster)


class TestConstruction:
    def test_average_degree_matches_mesh(self, small_world):
        # <k> = 4 so the WiNoC adds no switch overhead vs the mesh.
        assert small_world.average_degree() == pytest.approx(4.0)

    def test_kmax_respected(self, small_world):
        config = SmallWorldConfig()
        assert max(small_world.degree(n) for n in range(64)) <= config.kmax

    def test_connected(self, small_world):
        assert small_world.is_connected()

    def test_every_cluster_internally_connected(
        self, small_world, quadrants_module
    ):
        for cid in range(4):
            members = {n for n, c in enumerate(quadrants_module) if c == cid}
            # BFS within cluster-only links
            seen = {min(members)}
            frontier = [min(members)]
            while frontier:
                node = frontier.pop()
                for link in small_world.adjacency()[node]:
                    peer = link.other(node)
                    if peer in members and peer not in seen:
                        seen.add(peer)
                        frontier.append(peer)
            assert seen == members

    def test_intra_inter_split(self, small_world, quadrants_module):
        intra = inter = 0
        for link in small_world.links:
            if quadrants_module[link.a] == quadrants_module[link.b]:
                intra += 1
            else:
                inter += 1
        assert intra == 96  # 4 clusters * 16 nodes * 3.0 / 2
        assert inter == 32  # 64 * 1.0 / 2

    def test_deterministic_given_seed(self, geometry_module, quadrants_module):
        a = build_small_world(geometry_module, quadrants_module, seed=9)
        b = build_small_world(geometry_module, quadrants_module, seed=9)
        assert [(l.a, l.b) for l in a.links] == [(l.a, l.b) for l in b.links]

    def test_different_seed_differs(self, geometry_module, quadrants_module):
        a = build_small_world(geometry_module, quadrants_module, seed=9)
        b = build_small_world(geometry_module, quadrants_module, seed=10)
        assert [(l.a, l.b) for l in a.links] != [(l.a, l.b) for l in b.links]

    def test_traffic_skews_link_quotas(self, geometry_module, quadrants_module):
        traffic = np.ones((4, 4))
        traffic[0, 1] = traffic[1, 0] = 100.0
        topo = build_small_world(
            geometry_module,
            quadrants_module,
            inter_cluster_traffic=traffic,
            seed=4,
        )
        counts = {}
        for link in topo.links:
            ca, cb = quadrants_module[link.a], quadrants_module[link.b]
            if ca != cb:
                counts[frozenset((ca, cb))] = counts.get(frozenset((ca, cb)), 0) + 1
        assert counts[frozenset((0, 1))] > counts[frozenset((2, 3))]

    def test_local_bias_of_intra_links(self, small_world, quadrants_module):
        intra_lengths = [
            link.length_mm
            for link in small_world.links
            if quadrants_module[link.a] == quadrants_module[link.b]
        ]
        # alpha_intra = 3 keeps most intra links at nearest-neighbour reach.
        assert np.median(intra_lengths) <= 1.5 * small_world.geometry.pitch_mm

    def test_22_configuration(self, geometry_module, quadrants_module):
        config = SmallWorldConfig(k_intra=2.0, k_inter=2.0)
        topo = build_small_world(
            geometry_module, quadrants_module, config=config, seed=5
        )
        assert topo.average_degree() == pytest.approx(4.0)
        inter = sum(
            1
            for link in topo.links
            if quadrants_module[link.a] != quadrants_module[link.b]
        )
        assert inter == 64

    def test_infeasible_k_intra_rejected(self, geometry_module, quadrants_module):
        with pytest.raises(ValueError):
            build_small_world(
                geometry_module,
                quadrants_module,
                config=SmallWorldConfig(k_intra=1.0, k_inter=3.0),
                seed=1,
            )


class TestQuotas:
    def test_largest_remainder_sums(self):
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        traffic = np.arange(16, dtype=float).reshape(4, 4)
        quotas = _inter_cluster_quotas(pairs, [0, 1, 2, 3], traffic, 32)
        assert sum(quotas.values()) == 32
        assert all(quota >= 1 for quota in quotas.values())

    def test_uniform_when_no_traffic(self):
        pairs = [(0, 1), (0, 2), (1, 2)]
        quotas = _inter_cluster_quotas(pairs, [0, 1, 2], None, 9)
        assert set(quotas.values()) == {3}

    def test_too_few_links_rejected(self):
        pairs = [(0, 1), (0, 2), (1, 2)]
        with pytest.raises(ValueError):
            _inter_cluster_quotas(pairs, [0, 1, 2], None, 2)


class TestMatchesOracle:
    """The table-driven wiring weights and the ``choice``-free picks
    reproduce the per-pair builder exactly: same links in the same
    order, and the generator left in the same state."""

    @staticmethod
    def _build(builder, die, seed, **kwargs):
        rng = np.random.default_rng(seed)
        grid = die.grid()
        clusters = list(die.layout().node_cluster)
        topology = builder(
            grid, clusters,
            config=SmallWorldConfig().sized_for(die.num_cores, die.num_islands),
            seed=rng, **kwargs,
        )
        return topology.links, rng.bit_generator.state

    @pytest.mark.parametrize("cores", [64, 128, 256])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_same_links_and_generator_state(self, cores, seed):
        from repro.core.geometry import DieGeometry

        from tests.noc import smallworld_oracle

        die = DieGeometry.for_cores(cores)
        traffic = np.random.default_rng(seed).uniform(size=(4, 4))
        for kwargs in ({}, {"inter_cluster_traffic": traffic}):
            links, state = self._build(build_small_world, die, seed, **kwargs)
            want_links, want_state = self._build(
                smallworld_oracle.build_small_world, die, seed, **kwargs
            )
            assert links == want_links
            assert state == want_state

    def test_spill_path_matches(self, geometry_module, quadrants_module):
        # Port caps tight enough that some cluster pair cannot place its
        # quota, so the remainder spills over every inter-cluster pair.
        from tests.noc import smallworld_oracle

        config = SmallWorldConfig(k_intra=3.0, k_inter=2.0, kmax=6)
        traffic = np.ones((4, 4))
        traffic[0, 1] = traffic[1, 0] = 50.0
        built = []
        for builder in (build_small_world, smallworld_oracle.build_small_world):
            rng = np.random.default_rng(5)
            topology = builder(
                geometry_module, quadrants_module,
                inter_cluster_traffic=traffic, config=config, seed=rng,
            )
            built.append((topology.links, rng.bit_generator.state))
        assert built[0] == built[1]
