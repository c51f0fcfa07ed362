"""DieGeometry: the parametric die abstraction behind every builder.

Unit tests pin the resolution rules (``for_cores`` factorization, island
tiling, the paper die staying bit-for-bit the historical quadrant
layout) and the error paths the builders route through.  The
hypothesis sections check the structural invariants for *arbitrary*
valid dies: every core sits in exactly one island, the wireless overlay
derived from the die keeps channel ids inside the spec, and the flow
model over a non-square die stays monotone in offered load.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import DieGeometry, as_die
from repro.core.platforms import geometry_for
from repro.noc.routing import build_mesh_routing
from repro.noc.network import FlowNetworkModel
from repro.noc.placement import center_wireless_placement
from repro.noc.topology import GridGeometry, LinkKind, build_mesh
from repro.noc.wireless import (
    WirelessSpec,
    assign_wireless_links,
    channels_of,
    total_wireless_interfaces,
)
from repro.vfi.islands import quadrant_clusters

from tests.noc.test_network import latency


class TestPaperDie:
    def test_shape(self):
        die = DieGeometry.paper()
        assert (die.columns, die.rows) == (8, 8)
        assert (die.island_columns, die.island_rows) == (2, 2)
        assert die.num_cores == 64
        assert die.num_islands == 4
        assert die.cores_per_island == 16

    def test_matches_historical_quadrants(self):
        die = DieGeometry.paper()
        legacy = quadrant_clusters(GridGeometry(8, 8))
        assert tuple(die.layout().node_cluster) == tuple(legacy.node_cluster)
        assert [die.island_of(n) for n in range(64)] == list(
            legacy.node_cluster
        )

    def test_overlay_sizing(self):
        die = DieGeometry.paper()
        assert die.num_wireless_interfaces(num_channels=3) == 12
        assert die.wis_per_channel() == 4


class TestForCores:
    def test_64(self):
        die = DieGeometry.for_cores(64)
        assert die == DieGeometry.paper()

    def test_128_resolves_to_16x8(self):
        die = DieGeometry.for_cores(128)
        assert (die.columns, die.rows) == (16, 8)
        assert die.num_islands == 4

    def test_128_with_8_islands(self):
        die = DieGeometry.for_cores(128, num_islands=8)
        assert (die.columns, die.rows) == (16, 8)
        assert (die.island_columns, die.island_rows) == (4, 2)
        assert die.cores_per_island == 16
        assert die.num_wireless_interfaces(num_channels=3) == 24

    def test_256_stays_square(self):
        die = DieGeometry.for_cores(256)
        assert (die.columns, die.rows) == (16, 16)
        assert (die.island_columns, die.island_rows) == (2, 2)
        assert die.cores_per_island == 64

    def test_rectangular_non_power_of_two(self):
        # 20 = 5x4: odd column count forces a 1x4 island stack.
        die = DieGeometry.for_cores(20)
        assert (die.columns, die.rows) == (5, 4)
        assert die.num_islands == 4

    @pytest.mark.parametrize("cores", [6, 7, 18])
    def test_untileable_counts_raise(self, cores):
        # 18 = 6x3: no factor pair of 4 divides both sides.
        with pytest.raises(ValueError, match="island"):
            DieGeometry.for_cores(cores)

    def test_six_island_split_of_128_raises(self):
        with pytest.raises(ValueError, match="6-island"):
            DieGeometry.for_cores(128, num_islands=6)

    @pytest.mark.parametrize("cores", [0, -4, 2.5, "64"])
    def test_invalid_core_count_raises(self, cores):
        with pytest.raises(ValueError, match="for_cores"):
            DieGeometry.for_cores(cores)


class TestConstructionErrors:
    def test_island_grid_must_divide_mesh(self):
        with pytest.raises(ValueError, match="DieGeometry.for_cores"):
            DieGeometry(8, 8, island_columns=3)

    def test_error_names_entry_points(self):
        # The builder error paths must tell the caller where to go.
        with pytest.raises(ValueError, match="DieGeometry.for_cores"):
            geometry_for(48)
        with pytest.raises(ValueError, match="DieGeometry"):
            geometry_for(25)

    def test_as_die_rejects_foreign_types(self):
        with pytest.raises(TypeError, match="DieGeometry"):
            as_die("8x8")

    def test_as_die_defaults_to_paper(self):
        assert as_die(None) == DieGeometry.paper()

    def test_as_die_tiles_bare_grid(self):
        die = as_die(GridGeometry(6, 4))
        assert (die.columns, die.rows) == (6, 4)
        assert die.num_islands == 4


# --------------------------------------------------------------------- #
# Property sections: invariants over arbitrary valid dies
# --------------------------------------------------------------------- #

def _die_strategy(min_island_cores=1):
    """Valid dies by construction: sides are island-grid multiples."""
    blocks = st.integers(1, 4)
    return st.builds(
        lambda ic, ir, iw, ih: DieGeometry(
            ic * iw, ir * ih, island_columns=ic, island_rows=ir
        ),
        blocks, blocks, blocks, blocks,
    ).filter(lambda die: die.cores_per_island >= min_island_cores)


class TestIslandPartitionProperties:
    @given(_die_strategy())
    @settings(max_examples=60, deadline=None)
    def test_every_core_in_exactly_one_island(self, die):
        layout = die.layout()
        members = layout.members()
        covered = sorted(n for nodes in members.values() for n in nodes)
        assert covered == list(range(die.num_cores))
        assert len(members) == die.num_islands
        for nodes in members.values():
            assert len(nodes) == die.cores_per_island

    @given(_die_strategy())
    @settings(max_examples=60, deadline=None)
    def test_island_of_matches_layout(self, die):
        layout = die.layout()
        assert [die.island_of(n) for n in range(die.num_cores)] == list(
            layout.node_cluster
        )

    @given(_die_strategy())
    @settings(max_examples=60, deadline=None)
    def test_islands_are_contiguous_rectangles(self, die):
        for nodes in die.layout().members().values():
            columns = sorted({n % die.columns for n in nodes})
            rows = sorted({n // die.columns for n in nodes})
            assert columns == list(range(columns[0], columns[0] + len(columns)))
            assert rows == list(range(rows[0], rows[0] + len(rows)))
            assert len(columns) == die.island_width
            assert len(rows) == die.island_height


class TestWirelessOverlayProperties:
    @given(
        _die_strategy(min_island_cores=4).filter(
            lambda die: die.num_islands >= 2
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_channel_ids_within_spec_for_any_k(self, die, num_channels):
        spec = WirelessSpec(num_channels=num_channels).sized_for_islands(
            die.num_islands
        )
        placement = center_wireless_placement(
            die.grid(), die.layout().node_cluster, spec.num_channels
        )
        # The placement covers exactly channels 0..num_channels-1, and
        # every channel puts one WI in every island: token rings all
        # have length K, whatever the die.
        assert sorted(placement) == list(range(spec.num_channels))
        placed = [n for nodes in placement.values() for n in nodes]
        assert len(placed) == len(set(placed))
        assert len(placed) == die.num_wireless_interfaces(spec.num_channels)
        for nodes in placement.values():
            islands = [die.island_of(node) for node in nodes]
            assert sorted(islands) == list(range(die.num_islands))
        # The derived topology never emits a channel id outside the spec
        # (wire-adjacent WI pairs are legitimately skipped, so tiny dies
        # may drop links -- the id bound must hold regardless).
        topology = assign_wireless_links(
            build_mesh(die.grid()), placement, spec
        )
        assert all(
            0 <= link.channel < spec.num_channels
            for link in topology.links
            if link.kind is LinkKind.WIRELESS
        )

    def test_128_core_8_island_overlay_complete(self):
        die = DieGeometry.for_cores(128, num_islands=8)
        spec = WirelessSpec().sized_for_islands(die.num_islands)
        placement = center_wireless_placement(
            die.grid(), die.layout().node_cluster, spec.num_channels
        )
        topology = assign_wireless_links(
            build_mesh(die.grid()), placement, spec
        )
        channels = channels_of(topology)
        assert sorted(channels) == list(range(spec.num_channels))
        assert total_wireless_interfaces(topology) == (
            die.num_wireless_interfaces(spec.num_channels)
        )
        for channel in channels.values():
            islands = [die.island_of(node) for node in channel.wi_nodes]
            assert sorted(islands) == list(range(die.num_islands))


class TestFlowModelProperties:
    """Latency monotonicity on a non-square, non-paper die."""

    DIE = DieGeometry(6, 4, island_columns=2, island_rows=2)

    def fresh_model(self):
        mesh = build_mesh(self.DIE.grid())
        return FlowNetworkModel(
            mesh,
            build_mesh_routing(mesh),
            list(self.DIE.layout().node_cluster),
            [2.5e9] * self.DIE.num_islands,
        )

    @given(
        st.integers(0, 23), st.integers(0, 23), st.floats(1e6, 5e9)
    )
    @settings(max_examples=40, deadline=None)
    def test_latency_monotone_in_load(self, a, b, rate):
        if a == b:
            return
        model = self.fresh_model()
        probes = [(0, 23), (5, 18), (b, a)]
        before = [latency(model, x, y, 544) for x, y in probes]
        model.add_flows([a], [b], [rate])
        after = [latency(model, x, y, 544) for x, y in probes]
        for earlier, later in zip(before, after):
            assert later >= earlier - 1e-15
