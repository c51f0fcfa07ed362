"""Contention-aware flow model of the NoC.

The timing simulator needs, for millions of memory accesses and bulk
key-value transfers, the latency of moving packets between switches under
load.  Simulating every flit in Python is intractable, so the network is
modeled at the *flow* level, the standard analytic approach for NoC
design-space exploration:

* Every (source, destination) pair uses one deterministic path (XY on the
  mesh, weighted shortest path on the WiNoC), which its routing's
  predecessor matrix encodes.
* During each execution phase the simulator registers the phase's traffic
  as flows (bits/s, :meth:`FlowNetworkModel.add_flows`, or a
  :class:`PairFlows` view kept across a phase's rounds); the model
  attributes them to link *directions* and to shared wireless channels.
* Per-hop latency = router pipeline (at the switch's VFI clock) + link
  traversal (wire clocked by the slower adjacent domain, or wireless
  propagation + token overhead) + an M/D/1-style queueing term driven by
  the resource's utilization + a synchronizer penalty when a packet
  crosses VFI clock domains.
* End-to-end packet latency = per-hop head latency summed over the path
  + payload serialization at the path's raw bottleneck line rate (the
  queueing term already accounts for contention; degrading the
  serialization rate too would double-count it).  Bulk *streams* instead
  see the utilization-degraded effective capacity.

:class:`FlowNetworkModel` holds the fabric (:class:`repro.noc.fabric.Fabric`,
shared by every network over the same topology and routing), its
clocks, the current loads and the energy counters.  The all-pairs tables
of :mod:`repro.noc.dense` are the model's only evaluation: they compute
the latency, capacity and transfer energy of every pair from the
fabric's one walk of each routing, and :meth:`Fabric.flow_usage
<repro.noc.fabric.Fabric.flow_usage>` maps pairs onto resources.
``tests/noc/path_oracle.py`` keeps the per-packet path walk as the
reference they are checked against.

VFI clocking matters twice: lowering a cluster's V/F slows its routers
(raising inter-cluster latency through it), and the mesh baseline pays it
on every multi-hop path -- which is exactly the effect the paper's WiNoC
sidesteps with single-hop long-range links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csc_matrix

from repro.noc.energy import NocEnergyModel, NocEnergyParams
from repro.noc.fabric import fabric_for
from repro.noc.routing import RoutingTable
from repro.noc.topology import Link, LinkKind, Topology
from repro.noc.wireless import WirelessSpec
from repro.telemetry import get_tracer
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class NocParams:
    """Router/link microarchitecture parameters (paper Sec. 7)."""

    flit_bits: int = 32
    router_pipeline_cycles: int = 4
    link_traversal_cycles: int = 1
    #: Mixed-clock FIFO penalty for crossing VFI domains.
    domain_sync_cycles: int = 4
    #: Utilization cap: beyond this the queueing term saturates.
    max_utilization: float = 0.95
    #: Port buffer depths (paper Sec. 7): wired ports hold 2 flits, WI
    #: ports 8.  A finite buffer bounds how long a flit can wait at a hop
    #: (M/D/1/K behaviour): at most ``depth - 1`` service times queue in
    #: front of it before backpressure stalls the upstream router instead.
    wire_buffer_flits: int = 2
    wi_buffer_flits: int = 8
    #: Source block size of the all-pairs NoC tables
    #: (:mod:`repro.noc.dense`, :mod:`repro.sim.memory`), which one
    #: forward route walk builds block by block
    #: (:meth:`repro.noc.fabric.Fabric.walks`).  ``None`` (the
    #: default) walks every source in one block and stores float64; a
    #: block size also switches storage to float32, so 128/256-core dies
    #: stay within a bounded peak RSS.
    dense_block_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive("flit_bits", self.flit_bits)
        check_positive("router_pipeline_cycles", self.router_pipeline_cycles)
        check_positive("link_traversal_cycles", self.link_traversal_cycles)
        check_positive("domain_sync_cycles", self.domain_sync_cycles, allow_zero=True)
        check_positive("wire_buffer_flits", self.wire_buffer_flits)
        check_positive("wi_buffer_flits", self.wi_buffer_flits)
        if self.dense_block_nodes is not None:
            check_positive("dense_block_nodes", self.dense_block_nodes)
        if not 0.0 < self.max_utilization < 1.0:
            raise ValueError(
                f"max_utilization must be in (0,1), got {self.max_utilization}"
            )


class NetworkLoad:
    """Traffic bookkeeping: bits/s per directed link and per channel."""

    def __init__(self, num_links: int, num_channels: int):
        self.link_load = np.zeros((num_links, 2))
        self.channel_load = np.zeros(max(num_channels, 1))

    def clear(self) -> None:
        self.link_load[:] = 0.0
        self.channel_load[:] = 0.0


class FlowNetworkModel:
    """Latency/energy model of one interconnect instance.

    Parameters
    ----------
    topology, routing:
        The switch network and its deterministic routing; bulk
        transfers take the fabric's wire-preferring routing
        (:attr:`repro.noc.fabric.Fabric.bulk_routing`).
    clusters:
        VFI cluster id per node (all zeros for a non-VFI platform).
    cluster_frequencies_hz:
        Clock of each cluster's switches (indexed by cluster id).
    cluster_voltages:
        Supply voltage per cluster (for static-power scaling).
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingTable,
        clusters: Sequence[int],
        cluster_frequencies_hz: Sequence[float],
        cluster_voltages: Optional[Sequence[float]] = None,
        params: NocParams = NocParams(),
        wireless: WirelessSpec = WirelessSpec(),
        energy_params: NocEnergyParams = NocEnergyParams(),
    ):
        if len(clusters) != topology.num_nodes:
            raise ValueError("clusters length does not match topology")
        self.topology = topology
        self.routing = routing
        self.clusters = list(clusters)
        self.cluster_frequencies_hz = list(cluster_frequencies_hz)
        for cid in self.clusters:
            if not 0 <= cid < len(self.cluster_frequencies_hz):
                raise ValueError(f"cluster {cid} has no frequency assigned")
        self.cluster_voltages = (
            list(cluster_voltages)
            if cluster_voltages is not None
            else [1.0] * len(self.cluster_frequencies_hz)
        )
        self.params = params
        self.wireless = wireless
        self.energy = NocEnergyModel(energy_params)
        # Wireless channel ids index directly into the shared channel-load
        # table, so an out-of-range id would either IndexError deep inside
        # flow registration mid-simulation or (with num_channels == 0,
        # where the table keeps a single placeholder row) silently alias
        # every channel onto row 0.  Fail at construction instead.
        for link in topology.links:
            if link.kind is not LinkKind.WIRELESS:
                continue
            if not 0 <= link.channel < wireless.num_channels:
                raise ValueError(
                    f"wireless link {link.a}-{link.b} uses channel "
                    f"{link.channel}, but the wireless spec provides "
                    f"{wireless.num_channels} channel(s) "
                    f"(valid ids: 0..{wireless.num_channels - 1})"
                )
        self._wireless_channels = sorted(
            {
                link.channel
                for link in topology.links
                if link.kind is LinkKind.WIRELESS
            }
        )
        self.load = NetworkLoad(len(topology.links), wireless.num_channels)
        self._node_freq = np.array(
            [self.cluster_frequencies_hz[cid] for cid in self.clusters]
        )
        #: The clock-free half of every table, shared with every network
        #: over the same content (:func:`repro.noc.fabric.fabric_for`).
        self.fabric = fabric_for(topology, routing, wireless.num_channels, params)
        #: Everything the per-clock tables read besides the fabric: they
        #: are built once per distinct value and kept in the fabric.
        self.clock_key = (
            params, wireless, tuple(self.clusters), self._node_freq.tobytes()
        )
        # Telemetry: captured at construction (install the tracer first).
        # ``trace_label`` names this interconnect instance in counters and
        # samples; a memory system labels its network with the platform
        # name.
        self._tracer = get_tracer()
        self.trace_label = "noc"

    @property
    def bulk_routing(self) -> RoutingTable:
        """Routing of bulk (streaming) transfers: the latency routing
        itself unless the fabric routes the bulk class apart."""
        if self.fabric.routing_key(True):
            return self.fabric.bulk_routing
        return self.routing

    # ------------------------------------------------------------------ #
    # flow registration
    # ------------------------------------------------------------------ #

    def reset_flows(self) -> None:
        self.load.clear()

    def add_flows(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        bits_per_s: Sequence[float],
        bulk: bool = False,
    ) -> None:
        """Register sustained traffic: ``bits_per_s[i]`` from ``src[i]``
        to ``dst[i]``, every hop of the pair's path loaded once.

        A :class:`PairFlows` view of the pairs, built and used once."""
        PairFlows(self, src, dst, bulk).register(bits_per_s)

    def apply_resource_load(self, load_per_resource: np.ndarray) -> None:
        """Add a per-resource load vector (bits/s) onto the current loads.

        The resource layout matches the flow-usage columns
        (:meth:`repro.noc.fabric.Fabric.flow_usage`): directed
        link ``i`` occupies columns ``2*i`` / ``2*i + 1``, wireless channel
        ``c`` occupies column ``2 * num_links + c``.
        """
        num_links = len(self.topology.links)
        num_channels = self.load.channel_load.shape[0]
        expected = 2 * num_links + num_channels
        if load_per_resource.shape != (expected,):
            raise ValueError(
                f"expected {expected} resources, got {load_per_resource.shape}"
            )
        self.load.link_load += load_per_resource[: 2 * num_links].reshape(
            num_links, 2
        )
        self.load.channel_load += load_per_resource[2 * num_links :]

    # ------------------------------------------------------------------ #
    # energy / statistics
    # ------------------------------------------------------------------ #

    def _count_flits(self, links: Sequence[Link], bits: float) -> None:
        """Telemetry: per-link and per-kind flit counters for a transfer."""
        tracer = self._tracer
        label = self.trace_label
        flits = -(-bits // self.params.flit_bits)  # ceil on floats
        for link in links:
            tracer.counter_add(
                "noc.link_flits", flits, key=f"{label}:{link.a}-{link.b}"
            )
            if link.kind is LinkKind.WIRELESS:
                tracer.counter_add("noc.flits.wireless", flits, key=label)
            else:
                tracer.counter_add("noc.flits.wired", flits, key=label)

    def static_energy(self, elapsed_s: float) -> float:
        """Switch leakage over *elapsed_s*, per-cluster voltage scaled."""
        nominal_v = max(self.cluster_voltages)
        total = 0.0
        for node in range(self.topology.num_nodes):
            scale = self.cluster_voltages[self.clusters[node]] / nominal_v
            total += self.energy.static_energy(1, elapsed_s, scale)
        return total

    def sample_channel_occupancy(self, ts_s: float) -> None:
        """Telemetry: one offered-load sample per wireless channel.

        The simulator calls this after registering a phase's flows, so a
        recorded trace carries a counter track per shared mm-wave channel
        showing its offered load as a fraction of the channel bandwidth
        (paper Fig. 6's wireless-utilization comparison, over time).
        """
        tracer = self._tracer
        if not tracer.enabled or not self._wireless_channels:
            return
        bandwidth = self.wireless.bandwidth_bps
        for channel in self._wireless_channels:
            tracer.sample(
                f"channel {channel} occupancy",
                ts_s,
                float(self.load.channel_load[channel]) / bandwidth,
                pid=self.trace_label,
                tid=int(channel),
                series="fraction",
            )


class PairFlows:
    """Flow registration for one fixed set of (src, dst) entries.

    Everything that depends only on the entries is indexed once: the
    validated node ids, the distinct pairs ``src * n + dst`` and each
    entry's index among them, and those pairs' rows of the fabric's
    flow usage (:meth:`repro.noc.fabric.Fabric.flow_usage`), gathered
    straight off the csr arrays.  Registering a rate vector is then one
    ``np.bincount`` per pair and one mat-vec of the gathered rows read
    as their transpose (a csc).  The mat-vec sums each resource's
    terms in ascending pair order, as the csc product over every pair
    does, so the loads are array-equal to that full product
    (``tests/noc/table_oracles.py``): a pair without traffic, or
    ``src == dst`` (an empty row), adds exact zeros.  Rates are summed
    per pair in entry order, as ``np.add.at`` would.
    """

    def __init__(
        self,
        network: "FlowNetworkModel",
        src: Sequence[int],
        dst: Sequence[int],
        bulk: bool = False,
    ):
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        if src.shape != dst.shape:
            raise ValueError(
                f"src/dst shapes differ: {src.shape}, {dst.shape}"
            )
        n = network.topology.num_nodes
        if src.size and not (
            (0 <= src).all() and (src < n).all() and (0 <= dst).all() and (dst < n).all()
        ):
            raise ValueError(f"src/dst node ids must be in [0, {n})")
        self.network = network
        self.bulk = bulk
        self.src = src
        self.dst = dst
        pairs, self._inverse = np.unique(src * n + dst, return_inverse=True)
        usage = network.fabric.flow_usage(bulk)
        starts = usage.indptr[pairs]
        counts = usage.indptr[pairs + 1] - starts
        indptr = np.zeros(len(pairs) + 1, dtype=usage.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        entries = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        self._usage_t = csc_matrix(
            (usage.data[entries], usage.indices[entries], indptr),
            shape=(usage.shape[1], len(pairs)),
        )

    def resource_load(self, bits_per_s: np.ndarray) -> np.ndarray:
        """Per-resource load (bits/s) of ``bits_per_s[i]`` on entry ``i``."""
        by_pair = np.bincount(
            self._inverse, weights=bits_per_s, minlength=self._usage_t.shape[1]
        )
        return self._usage_t @ by_pair

    def register(self, bits_per_s: Sequence[float]) -> None:
        """Add the entries' flows at *bits_per_s* onto the network's loads."""
        rate = np.asarray(bits_per_s, dtype=float)
        if rate.shape != self.src.shape:
            raise ValueError(
                f"src/dst/bits_per_s shapes differ: "
                f"{self.src.shape}, {self.dst.shape}, {rate.shape}"
            )
        if rate.size == 0:
            return
        if (rate < 0).any():
            raise ValueError("bits_per_s must be >= 0")
        self.network.apply_resource_load(self.resource_load(rate))
