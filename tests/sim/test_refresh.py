"""One load refresh computes each NoC quantity once.

Both message classes of a fabric without wireless links route on the
latency routing itself, so they share one set of static tables (dense
latency, pairwise energy, flow usage); a WiNoC's wire-preferring bulk
routing keeps its own.  A refresh keeps the bulk class's loaded head as
its zero-payload latency and gathers effective capacity per priced pair;
both must equal the full matrices refreshes used to build
(``tests/noc/table_oracles.py``) bit for bit.
"""

import numpy as np
import pytest

from repro.core.platforms import build_nvfi_mesh
from repro.noc.routing import build_routing_table
from repro.noc.topology import LinkKind
from repro.sim.memory import MemorySystem
from repro.sim.platform import Platform
from repro.telemetry import RecordingTracer, use_tracer

from tests.noc import table_oracles as oracle
from tests.sim.test_flow_registration import winoc_platform


def wireless_stripped(platform):
    """*platform*'s WiNoC with every wireless link removed."""
    wireless = [
        link.key for link in platform.topology.links
        if link.kind is LinkKind.WIRELESS
    ]
    topology = platform.topology.without_links(wireless)
    return Platform(
        name="stripped",
        layout=platform.layout,
        vf_points=list(platform.vf_points),
        topology=topology,
        routing=build_routing_table(topology),
        memory_params=platform.memory_params,
    )


PLATFORMS = {
    "mesh": build_nvfi_mesh,
    "winoc": winoc_platform,
    "stripped_winoc": lambda: wireless_stripped(winoc_platform()),
}


def _tables(memory, bulk):
    dense = memory.dense_bulk if bulk else memory.dense
    pairwise = memory.pairwise_bulk if bulk else memory.pairwise
    usage = memory.network.fabric.flow_usage(bulk)
    return (
        dense._head, dense._usage, dense._binary_usage, dense._raw_bottleneck,
        pairwise.energy_per_bit, pairwise.hops, pairwise.wireless_links, usage,
    )


class TestOneTableSetPerRouting:
    @pytest.mark.parametrize("fabric", ["mesh", "stripped_winoc"])
    def test_single_routing_fabrics_share_every_table(self, fabric):
        memory = MemorySystem(PLATFORMS[fabric](), locality=0.5)
        network = memory.network
        assert network.bulk_routing is network.routing
        for shared, bulk in zip(_tables(memory, False), _tables(memory, True)):
            assert shared is bulk

    def test_winoc_classes_keep_their_own_tables(self):
        memory = MemorySystem(winoc_platform(), locality=0.5)
        for latency, bulk in zip(_tables(memory, False), _tables(memory, True)):
            assert latency is not bulk


@pytest.fixture(scope="module", params=sorted(PLATFORMS))
def loaded_memory(request):
    """A memory system refreshed under miss and key-value load."""
    memory = MemorySystem(PLATFORMS[request.param](), locality=0.4)
    n = memory.num_nodes
    rng = np.random.default_rng(5)
    memory.add_miss_flows_batch(rng.uniform(0.0, 4e7, size=n))
    memory.network.add_flows(
        rng.integers(n, size=40), rng.integers(n, size=40),
        rng.uniform(1e8, 2e9, size=40), bulk=True,
    )
    memory.refresh_latencies()
    return memory


class TestRefreshMatchesFullMatrices:
    def test_bulk_base_latency(self, loaded_memory):
        expected = oracle.zero_payload_latency(loaded_memory.dense_bulk)
        assert loaded_memory.bulk_base_latency_s.dtype == expected.dtype
        assert np.array_equal(loaded_memory.bulk_base_latency_s, expected)

    def test_bulk_path_capacity_at_every_pair(self, loaded_memory):
        n = loaded_memory.num_nodes
        src, dst = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        gather = loaded_memory.dense_bulk.pair_capacity(src, dst)
        got = gather(loaded_memory.bulk_inverse_capacity).reshape(n, n)
        expected = oracle.bottleneck_matrix(loaded_memory.dense_bulk)
        assert np.array_equal(got, expected)
        assert (expected < loaded_memory.bulk_raw_bottleneck_bps).any()


class TestTokenWaitTelemetry:
    @pytest.mark.parametrize("fabric", sorted(PLATFORMS))
    def test_one_observation_per_class_per_channel(self, fabric):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            platform = PLATFORMS[fabric]()
            memory = MemorySystem(platform, locality=0.4)
            memory.refresh_latencies()
        channels = len(memory.network._wireless_channels)
        observed = sum(
            histogram.count
            for name, histogram in tracer.histograms.items()
            if name.startswith("noc.token_wait_s/")
        )
        # Two refreshes (construction + one), two classes, per channel.
        assert observed == 2 * 2 * channels
        assert (channels > 0) == (fabric == "winoc")
