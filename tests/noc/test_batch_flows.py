"""Batch flow registration (`add_flows`) and wireless-channel validation.

The reference is the per-pair ``add_flow`` of ``tests/noc/path_oracle.py``."""

import numpy as np
import pytest

from repro.noc.network import FlowNetworkModel
from repro.noc.placement import center_wireless_placement
from repro.noc.routing import build_mesh_routing, build_routing_table
from repro.noc.smallworld import build_small_world
from repro.noc.topology import GridGeometry, Link, LinkKind, build_mesh
from repro.noc.wireless import WirelessSpec, assign_wireless_links
from repro.vfi.islands import quadrant_clusters

from tests.noc.path_oracle import PathModel

GEO = GridGeometry(8, 8)
CLUSTERS = list(quadrant_clusters(GEO).node_cluster)
NOMINAL = [2.5e9] * 4


def mesh_model():
    mesh = build_mesh(GEO)
    return FlowNetworkModel(mesh, build_mesh_routing(mesh), CLUSTERS, NOMINAL)


def winoc_model(spec=WirelessSpec()):
    wireline = build_small_world(GEO, CLUSTERS, seed=3)
    winoc = assign_wireless_links(
        wireline, center_wireless_placement(GEO, CLUSTERS), spec
    )
    return FlowNetworkModel(
        winoc, build_routing_table(winoc), CLUSTERS, NOMINAL, wireless=spec
    )


class TestAddFlowsEquivalence:
    """Batched registration must equal the per-call reference exactly.

    Rates are dyadic rationals over unique pairs, so per-link sums round
    identically regardless of accumulation order and the comparison can
    demand exact array equality.
    """

    def _flows(self, n, seed, count=200):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, size=count)
        dst = rng.integers(0, n, size=count)
        # Dyadic rates (k * 2^20 with integer k), one flow per pair.
        rate = rng.integers(1, 1 << 20, size=count).astype(float) * 1024.0
        pairs = {}
        for s, d, r in zip(src, dst, rate):
            pairs[(int(s), int(d))] = float(r)
        flat = [(s, d, r) for (s, d), r in sorted(pairs.items())]
        return (
            np.array([f[0] for f in flat]),
            np.array([f[1] for f in flat]),
            np.array([f[2] for f in flat]),
        )

    @pytest.mark.parametrize("bulk", [False, True])
    def test_mesh_exact(self, bulk):
        reference = PathModel(mesh_model())
        batched = mesh_model()
        src, dst, rate = self._flows(64, seed=11)
        for s, d, r in zip(src, dst, rate):
            reference.add_flow(int(s), int(d), float(r), bulk=bulk)
        batched.add_flows(src, dst, rate, bulk=bulk)
        np.testing.assert_array_equal(
            batched.load.link_load, reference.load.link_load
        )
        np.testing.assert_array_equal(
            batched.load.channel_load, reference.load.channel_load
        )

    @pytest.mark.parametrize("bulk", [False, True])
    def test_winoc_exact(self, bulk):
        reference = PathModel(winoc_model())
        batched = winoc_model()
        src, dst, rate = self._flows(64, seed=23)
        for s, d, r in zip(src, dst, rate):
            reference.add_flow(int(s), int(d), float(r), bulk=bulk)
        batched.add_flows(src, dst, rate, bulk=bulk)
        np.testing.assert_array_equal(
            batched.load.link_load, reference.load.link_load
        )
        np.testing.assert_array_equal(
            batched.load.channel_load, reference.load.channel_load
        )

    def test_self_and_zero_flows_ignored(self):
        model = mesh_model()
        model.add_flows([3, 5], [3, 9], [1e9, 0.0])
        assert not model.load.link_load.any()
        assert not model.load.channel_load.any()

    def test_duplicate_pairs_accumulate(self):
        reference = PathModel(mesh_model())
        batched = mesh_model()
        reference.add_flow(0, 9, 1e9)
        reference.add_flow(0, 9, 2e9)
        batched.add_flows([0, 0], [9, 9], [1e9, 2e9])
        np.testing.assert_allclose(
            batched.load.link_load, reference.load.link_load, rtol=1e-15
        )

    def test_empty_batch_is_noop(self):
        model = mesh_model()
        model.add_flows([], [], [])
        assert not model.load.link_load.any()

    def test_validation(self):
        model = mesh_model()
        with pytest.raises(ValueError):
            model.add_flows([0, 1], [2], [1e9, 1e9])
        with pytest.raises(ValueError):
            model.add_flows([0], [2], [-1.0])
        with pytest.raises(ValueError):
            model.add_flows([0], [64], [1e9])
        with pytest.raises(ValueError):
            model.add_flows([-1], [2], [1e9])


class TestWirelessChannelValidation:
    def test_valid_channels_accepted(self):
        model = winoc_model()
        assert model.topology.wireless_links()

    def test_out_of_range_channel_rejected(self):
        """A spec with fewer channels than the topology's links use must
        fail at construction, not IndexError inside add_flows later."""
        wireline = build_small_world(GEO, CLUSTERS, seed=3)
        winoc = assign_wireless_links(
            wireline, center_wireless_placement(GEO, CLUSTERS)
        )
        narrow = WirelessSpec(num_channels=2)
        with pytest.raises(ValueError, match="channel"):
            FlowNetworkModel(
                winoc, build_routing_table(winoc), CLUSTERS, NOMINAL,
                wireless=narrow,
            )

    def test_negative_channel_rejected(self):
        mesh = build_mesh(GEO)
        bad = mesh.with_links(
            [
                Link(
                    0, 63, LinkKind.WIRELESS,
                    length_mm=GEO.distance_mm(0, 63), channel=-1,
                )
            ],
            name="bad-channel",
        )
        with pytest.raises(ValueError, match="channel"):
            FlowNetworkModel(
                bad, build_routing_table(bad), CLUSTERS, NOMINAL
            )
