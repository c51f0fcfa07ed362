"""Every all-pairs NoC table equals its reference builders bit for bit.

The simulator builds the dense latency tables, the pairwise energy
tables, the flow-usage matrices and the calibration channel loads from
the fabric's one forward route walk per routing (:mod:`repro.noc.fabric`),
with the per-clock tables replayed on top of it.  The reference builders
in ``tests/noc/table_oracles.py`` are the per-pair float64 and blocked
float32 builders that walk preceded, and the one-walk builders that
walked each network's routing afresh; each test here compares with
``np.array_equal`` (csr matrices: ``indptr``, ``indices``, ``data`` and
dtype), never with a tolerance.  The same holds for a load refresh's
pieces against the full matrices a refresh used to build, and for the
restricted ``add_flows`` scatter against the full mat-vec.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.geometry import DieGeometry
from repro.noc import calibration
from repro.noc.calibration import calibrated_fabric, channel_utilizations
from repro.noc.dense import DenseLatencyModel, PairwiseEnergy
from repro.noc.fabric import fabric_for
from repro.noc.network import FlowNetworkModel, NocParams
from repro.noc.placement import center_wireless_placement
from repro.noc.routing import build_mesh_routing, build_routing_table
from repro.noc.smallworld import SmallWorldConfig, build_small_world
from repro.noc.topology import LinkKind, build_mesh
from repro.noc.wireless import WirelessSpec, assign_wireless_links

from tests.noc import table_oracles as oracle

PAPER = DieGeometry.paper()
MIXED_FREQS = [2.5e9, 2.25e9, 2.0e9, 1.75e9]


def _winoc(die: DieGeometry, seed: int = 3):
    grid = die.grid()
    clusters = list(die.layout().node_cluster)
    spec = WirelessSpec().sized_for_islands(die.num_islands)
    wireline = build_small_world(
        grid, clusters,
        config=SmallWorldConfig().sized_for(die.num_cores, die.num_islands),
        seed=seed,
    )
    placement = center_wireless_placement(grid, clusters, spec.num_channels)
    return assign_wireless_links(wireline, placement, spec), spec


def _model(topology, routing, die, freqs, params=NocParams(), wireless=None):
    """A network whose bulk class takes the fabric's wire-preferring
    routing wherever the topology has wireless links."""
    clusters = list(die.layout().node_cluster)
    return FlowNetworkModel(
        topology, routing, clusters,
        [freqs[c % len(freqs)] for c in range(die.num_islands)],
        params=params,
        wireless=wireless or WirelessSpec(),
    )


def mesh_model(die=PAPER, freqs=MIXED_FREQS, params=NocParams()):
    mesh = build_mesh(die.grid())
    return _model(mesh, build_mesh_routing(mesh), die, freqs, params)


def winoc_model(die=PAPER, freqs=MIXED_FREQS, params=NocParams()):
    winoc, spec = _winoc(die)
    return _model(winoc, build_routing_table(winoc), die, freqs, params, spec)


def degraded_winoc_model(die=PAPER, freqs=MIXED_FREQS, params=NocParams()):
    winoc, spec = _winoc(die)
    wire = next(l for l in winoc.links if l.kind is LinkKind.WIRE)
    radio = next(l for l in winoc.links if l.kind is LinkKind.WIRELESS)
    degraded = winoc.without_links([wire.key, radio.key])
    return _model(
        degraded, build_routing_table(degraded), die, freqs, params, spec
    )


FABRICS = {
    "mesh": mesh_model,
    "winoc": winoc_model,
    "degraded_winoc": degraded_winoc_model,
}

#: (fabric, die, dense_block_nodes): single-block float64 on the paper
#: die, float32 blocks on the paper die and on a 16x8 128-core die.
CASES = [
    (fabric, die, block)
    for fabric in FABRICS
    for die, block in (
        (PAPER, None),
        (PAPER, 16),
        (DieGeometry.for_cores(128), 64),
    )
]


def _case_id(case):
    fabric, die, block = case
    return f"{fabric}-{die.num_cores}-{'f64' if block is None else f'b{block}'}"


@pytest.fixture(scope="module", params=CASES, ids=_case_id)
def model(request):
    fabric, die, block = request.param
    params = NocParams() if block is None else replace(
        NocParams(), dense_block_nodes=block
    )
    return FABRICS[fabric](die, params=params)


def assert_csr_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert np.array_equal(actual.data, expected.data)


def assert_array_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def _dense_tables(model, bulk):
    """The tables a :class:`DenseLatencyModel` derives from the fabric."""
    dense = DenseLatencyModel(model, bulk)
    return {
        "num_resources": dense.num_resources,
        "service": dense._service,
        "capacity": dense._capacity,
        "buffer_flits": dense._buffer_flits,
        "head": dense._head,
        "usage": dense._usage,
        "binary_usage": dense._binary_usage,
        "raw_bottleneck": dense._raw_bottleneck,
    }


def _pairwise_tables(model, bulk):
    energy = PairwiseEnergy(model, bulk)
    return energy.energy_per_bit, energy.hops, energy.wireless_links


@pytest.mark.parametrize("bulk", [False, True], ids=["latency", "bulk"])
class TestTablesMatchOracles:
    def test_dense_latency_tables(self, model, bulk):
        actual = _dense_tables(model, bulk)
        for reference in (oracle.dense_static, oracle.one_walk_dense_static):
            expected = reference(model, bulk)
            assert actual["num_resources"] == expected["num_resources"]
            for key in ("service", "capacity", "buffer_flits", "head",
                        "raw_bottleneck"):
                assert_array_equal(actual[key], expected[key])
            assert_csr_equal(actual["usage"], expected["usage"])
            assert_csr_equal(actual["binary_usage"], expected["binary_usage"])

    def test_pairwise_energy_tables(self, model, bulk):
        actual = _pairwise_tables(model, bulk)
        for reference in (oracle.pairwise_static, oracle.one_walk_pairwise):
            for got, want in zip(actual, reference(model, bulk)):
                assert_array_equal(got, want)

    def test_flow_usage(self, model, bulk):
        actual = model.fabric.flow_usage(bulk)
        assert_csr_equal(actual, oracle.flow_usage(model, bulk))
        assert_csr_equal(actual, oracle.one_walk_flow_usage(model, bulk))

    def test_every_clock_vector_matches(self, model, bulk):
        # Re-clocked networks over one fabric: each clock vector's
        # tables equal a fresh one-walk build at those clocks.  The last
        # one has the first one's node clocks but a single island, so
        # no hop pays a synchronizer.
        # one has the first one's node clocks but a single island, so
        # no hop pays a synchronizer, and two change the router and
        # token constants the per-clock tables also read.
        islands = len(model.cluster_frequencies_hz)
        single = [0] * model.topology.num_nodes
        slower = replace(model.params, router_pipeline_cycles=5)
        busier = replace(model.wireless, token_overhead_s=3e-9)
        for clusters, freqs, params, wireless in (
            (model.clusters, [2.5e9] * islands, model.params, model.wireless),
            (model.clusters, [1.5e9, 2.5e9, 1.75e9, 2.0e9], model.params,
             model.wireless),
            (model.clusters, MIXED_FREQS, slower, model.wireless),
            (model.clusters, MIXED_FREQS, model.params, busier),
            (single, [2.5e9], model.params, model.wireless),
        ):
            clocked = FlowNetworkModel(
                model.topology, model.routing, clusters,
                [freqs[c % len(freqs)] for c in range(max(clusters) + 1)],
                params=params, wireless=wireless,
            )
            assert clocked.fabric is model.fabric
            actual = _dense_tables(clocked, bulk)
            expected = oracle.one_walk_dense_static(clocked, bulk)
            for key in ("service", "capacity", "buffer_flits", "head",
                        "raw_bottleneck"):
                assert_array_equal(actual[key], expected[key])


def _loaded(model, seed=0, flows=40):
    """A fresh network over *model*'s fabric carrying random flows on
    both message classes, sparse enough to leave many pairs unloaded."""
    fresh = FlowNetworkModel(
        model.topology, model.routing, model.clusters,
        model.cluster_frequencies_hz, params=model.params,
        wireless=model.wireless,
    )
    n = model.topology.num_nodes
    rng = np.random.default_rng(seed)
    for bulk in (False, True):
        fresh.add_flows(
            rng.integers(n, size=flows), rng.integers(n, size=flows),
            rng.uniform(1e8, 4e9, size=flows), bulk=bulk,
        )
    return fresh


def _all_pairs(n):
    return np.repeat(np.arange(n), n), np.tile(np.arange(n), n)


@pytest.mark.parametrize("bulk", [False, True], ids=["latency", "bulk"])
class TestRefreshMatchesFullMatrices:
    """A refresh's pieces equal the full matrices it used to build."""

    def test_utilization_matches_link_loop(self, model, bulk):
        dense = DenseLatencyModel(_loaded(model), bulk=bulk)
        assert_array_equal(dense.utilization(), oracle.utilization(dense))

    def test_loaded_head_is_zero_payload_latency(self, model, bulk):
        dense = DenseLatencyModel(_loaded(model), bulk=bulk)
        head = dense.loaded_head(dense.queue_per_resource(dense.utilization()))
        assert_array_equal(head, oracle.zero_payload_latency(dense))

    def test_pair_capacity_matches_every_pair(self, model, bulk):
        dense = DenseLatencyModel(_loaded(model), bulk=bulk)
        n = dense.num_nodes
        inverse = dense.inverse_capacity(dense.utilization())
        expected = oracle.bottleneck_matrix(dense)
        src, dst = _all_pairs(n)
        capacity = dense.pair_capacity(src, dst)(inverse)
        assert_array_equal(capacity.reshape(n, n), expected)
        # src == dst crosses nothing; some loaded paths lost capacity
        # and some pairs see no load at all.
        assert np.isinf(np.diag(expected)).all()
        raw = dense.raw_bottleneck_matrix()
        off = ~np.eye(n, dtype=bool)
        assert (expected[off] < raw[off]).any()
        assert (expected[off] == raw[off]).any()
        # Any subset, in any order and with repeats, gathers the same.
        rng = np.random.default_rng(1)
        pick = rng.integers(n * n, size=500)
        assert_array_equal(
            dense.pair_capacity(src[pick], dst[pick])(inverse),
            expected.ravel()[pick],
        )
        assert dense.pair_capacity(src[:0], dst[:0])(inverse).shape == (0,)

    def test_restricted_add_flows_matches_full_matvec(self, model, bulk):
        fresh = _loaded(model, flows=0)
        n = fresh.topology.num_nodes
        rng = np.random.default_rng(2)
        few = rng.integers(n, size=6)  # few nodes: many duplicate pairs
        src = np.concatenate([rng.choice(few, 150), rng.integers(n, size=150)])
        dst = np.concatenate([rng.choice(few, 150), rng.integers(n, size=150)])
        dst[:10] = src[:10]  # src == dst moves nothing
        rate = rng.uniform(1e6, 4e9, size=len(src))
        rate[rng.random(len(src)) < 0.2] = 0.0
        expected = oracle.add_flows_full(fresh, src, dst, rate, bulk)
        fresh.add_flows(src, dst, rate, bulk=bulk)
        load = fresh.load
        got = np.concatenate((load.link_load.ravel(), load.channel_load))
        assert_array_equal(got, expected)


class TestBlockSize:
    def test_blocked_float64_sums_equal_per_pair_tables(self):
        """A multi-block walk still sums every route in path order: with
        float32 storage cast away, its float64 sums are the per-pair
        builder's, whatever the block size."""
        single = winoc_model()
        blocked = winoc_model(params=replace(NocParams(), dense_block_nodes=16))
        expected = oracle.per_pair_dense_static(single, False)
        actual = DenseLatencyModel(blocked)._head
        assert actual.dtype == np.float32
        assert np.array_equal(actual, expected["head"].astype(np.float32))


class TestForwardWalk:
    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    @pytest.mark.parametrize("block", [None, 24])
    def test_reproduces_every_routed_path(self, fabric, block):
        params = NocParams() if block is None else replace(
            NocParams(), dense_block_nodes=block
        )
        model = FABRICS[fabric](params=params)
        n = model.topology.num_nodes
        for bulk, routing in ((False, model.routing), (True, model.bulk_routing)):
            walked = {}
            for start, end, walk in model.fabric.walks(bulk):
                for u, v in walk.steps():
                    route = walk.order[: len(u)]
                    for r, a, b in zip(route.tolist(), u.tolist(), v.tolist()):
                        pair = (start + r // n, r % n)
                        nodes = walked.setdefault(pair, [a])
                        assert nodes[-1] == a  # hops chain src -> dst
                        nodes.append(b)
            for src in range(n):
                for dst in range(n):
                    expected = routing.path(src, dst)
                    assert tuple(walked.get((src, dst), [src])) == expected


def _traffic(n, seed):
    rng = np.random.default_rng(seed)
    rate = rng.uniform(1e6, 4e9, size=(n, n))
    rate[rng.random((n, n)) < 0.2] = 0.0
    rate[rng.random((n, n)) < 0.02] = -1.0  # skipped, like add_flow never sees it
    return rate


class TestChannelLoads:
    @pytest.mark.parametrize("fabric", ["winoc", "degraded_winoc"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_channel_utilizations_match_add_flow(self, fabric, seed):
        model = FABRICS[fabric]()
        traffic = _traffic(model.topology.num_nodes, seed)
        expected = oracle.add_flow_channel_utilizations(
            model.topology, model.routing, model.clusters,
            model.cluster_frequencies_hz, traffic, model.wireless,
        )
        got = channel_utilizations(
            model.fabric, traffic, model.wireless.bandwidth_bps
        )
        assert np.array_equal(got, expected)
        assert np.array_equal(got, oracle.usage_channel_utilizations(
            model.topology, model.routing, model.clusters,
            model.cluster_frequencies_hz, traffic, model.wireless,
        ))

    def test_every_calibration_call_matches(self, monkeypatch):
        """Each channel-load evaluation of a multi-iteration calibration
        equals the add_flow loop, so the calibrated routing is unchanged."""
        winoc, spec = _winoc(PAPER)
        clusters = list(PAPER.layout().node_cluster)
        heavy = np.full((64, 64), 1.5e12 / (64 * 63))
        np.fill_diagonal(heavy, 0.0)
        calls = []

        def checked(fabric, traffic, bandwidth_bps):
            actual = channel_utilizations(fabric, traffic, bandwidth_bps)
            expected = oracle.add_flow_channel_utilizations(
                fabric.topology, fabric.routing, clusters, MIXED_FREQS,
                traffic, spec,
            )
            calls.append(np.array_equal(actual, expected))
            return actual

        monkeypatch.setattr(calibration, "channel_utilizations", checked)
        calibrated_fabric(winoc, heavy, wireless=spec)
        assert len(calls) > 1 and all(calls)

    def test_blocked_256_core_loads_match_add_flow(self):
        """On the 256-core die's blocked float32 layout, the walk-based
        loads equal the add_flow loop over every positive-rate pair."""
        die = DieGeometry.for_cores(256)
        winoc, spec = _winoc(die)
        clusters = list(die.layout().node_cluster)
        freqs = [MIXED_FREQS[c % 4] for c in range(die.num_islands)]
        params = NocParams(dense_block_nodes=64)
        fabric = fabric_for(winoc, build_routing_table(winoc), spec.num_channels, params)
        assert fabric.dtype == np.float32 and fabric.block == 64
        rng = np.random.default_rng(2)
        n = die.num_cores
        traffic = rng.uniform(1e6, 4e9, size=(n, n))
        traffic[rng.random((n, n)) < 0.97] = 0.0
        got = channel_utilizations(fabric, traffic, spec.bandwidth_bps)
        expected = oracle.add_flow_channel_utilizations(
            winoc, fabric.routing, clusters, freqs, traffic, spec
        )
        assert got.any() and np.array_equal(got, expected)
