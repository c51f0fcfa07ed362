"""One die's interconnect, built once: everything a NoC table reads
that does not depend on clocks.

A :class:`Fabric` holds a topology, its latency routing, the
wire-preferring bulk routing derived from it, and one forward route
walk per routing (:class:`repro.noc.pathwalk.ForwardWalk`).  From those
it builds, once each, the clock-free all-pairs products: the dense
resource usage (:meth:`Fabric.usage`), the flow usage
(:meth:`Fabric.flow_usage`) and, per :class:`NocEnergyParams`, the
pairwise transfer-energy tables (:meth:`Fabric.pairwise`).  Everything
that does depend on clocks -- per-resource service and capacity, the
static head latency, the raw bottleneck -- is derived on top by
:class:`repro.noc.dense.DenseLatencyModel`, once per distinct clock
vector, and kept in the fabric's product memo (:meth:`Fabric.product`),
so a governor that steps back to an earlier clock set finds its tables
again.  The memory system keeps its per-(locality, memory-params)
products there too.

Fabrics are shared through :func:`fabric_for`, a process-wide memo
keyed by content: die geometry, link list, latency-routing
predecessors, wireless channel count and table layout.  A re-clocked,
re-powered or capped platform, or a fault-degraded view that only
throttles, has the same content and gets the same fabric; a view that
lost a link, another die, or a small-world fabric with as many links
as a mesh gets its own.  The memo holds weak references: a fabric lives
exactly as long as some platform
(:attr:`repro.sim.platform.Platform.fabric`) or network holds it, so
nothing outlives its study.

Like a core's structure apart from its DVFS point, the fabric is the
platform's structure; the V/F assignment is applied on top of it.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.noc.pathwalk import (
    ForwardWalk, edge_resource_tables, forward_steps, stack_usage, table_layout,
    unsort, usage_block,
)
from repro.noc.routing import RoutingTable, build_routing_table, default_link_weight
from repro.noc.topology import LinkKind, Topology

_FABRICS: "weakref.WeakValueDictionary[tuple, Fabric]" = weakref.WeakValueDictionary()


def fabric_for(topology: Topology, routing: RoutingTable, num_channels: int, params) -> "Fabric":
    """The live fabric with this content, or a new one.

    *params* is the :class:`repro.noc.network.NocParams` whose
    ``dense_block_nodes`` picks the table layout.
    """
    pred = routing.predecessor_matrix()
    key = (
        topology.geometry,
        tuple(topology.links),
        pred.dtype.str,
        pred.tobytes(),
        num_channels,
        table_layout(params, topology.num_nodes),
    )
    fabric = _FABRICS.get(key)
    if fabric is None:
        fabric = Fabric(topology, routing, num_channels, params)
        _FABRICS[key] = fabric
    return fabric


def _bulk_weight(link) -> float:
    if link.kind is LinkKind.WIRELESS:
        return 1e4
    return default_link_weight(link)


class Fabric:
    """A topology, its routings and walks, and their clock-free tables."""

    def __init__(self, topology: Topology, routing: RoutingTable, num_channels: int, params):
        n = topology.num_nodes
        self.topology = topology
        self.routing = routing
        self.num_nodes = n
        self.num_links = len(topology.links)
        self.num_resources = 2 * self.num_links + max(num_channels, 1)
        self.block, self.dtype = table_layout(params, n)
        self._wireless = bool(topology.wireless_links())
        self._bulk_routing = None
        self._products: Dict[object, object] = {}

    @property
    def bulk_routing(self) -> RoutingTable:
        """Routing of bulk (streaming) transfers.

        Token-MAC wireless channels are shared 16 Gbps media -- excellent
        latency shortcuts for cache-line packets, poor bandwidth for bulk
        streams -- so bulk transfers route over a heavily
        wireless-penalized metric (message-class routing, as with
        protocol-class virtual channels).  A fabric without wireless
        links routes them on the latency routing itself."""
        if not self._wireless:
            return self.routing
        if self._bulk_routing is None:
            self._bulk_routing = build_routing_table(self.topology, weight=_bulk_weight)
        return self._bulk_routing

    def routing_key(self, bulk: bool) -> bool:
        """Product-key part of a message class's tables: True only for a
        bulk class routed apart from the latency class.  A fabric without
        wireless links (every mesh, or a WiNoC that lost all of them)
        keys -- and shares -- one table set for both classes."""
        return bulk and self._wireless

    def product(self, key, build: Callable[[], object]):
        """The product stored under *key*, built by *build* on first use.

        Keys name what a product reads beyond the fabric: its message
        class, energy parameters, clock vector or memory parameters."""
        try:
            return self._products[key]
        except KeyError:
            value = self._products[key] = build()
            return value

    # ------------------------------------------------------------------ #
    # the walks and the clock-free tables
    # ------------------------------------------------------------------ #

    def walks(self, bulk: bool = False) -> List[Tuple[int, int, ForwardWalk]]:
        """``(start, end, walk)`` per source block of a message class's
        routing: the :func:`forward_steps` walk of sources
        ``start <= src < end``, taken once per routing."""

        def build():
            n = self.num_nodes
            routing = self.bulk_routing if bulk else self.routing
            pred = routing.predecessor_matrix()
            blocks = []
            for start in range(0, n, self.block):
                end = min(start + self.block, n)
                walk = forward_steps(pred[start:end], np.arange(start, end), n)
                blocks.append((start, end, walk))
            return blocks

        return self.product(("walks", self.routing_key(bulk)), build)

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(link_col, chan_col)`` of :func:`edge_resource_tables`."""
        return self.product("edge_columns", lambda: edge_resource_tables(self))

    def usage(self, bulk: bool = False):
        """``(usage, binary_usage)``: the (n*n, resources) csr counting
        how often each pair's path crosses each *billed* resource -- a
        wire direction, or the shared channel of a wireless hop -- and
        its deduplicated membership (a pair that crosses one channel
        twice still meets it once for min/max reductions).  The queueing
        mat-vec and the path-capacity gather read them.

        Without wireless links every hop bills its wire direction, which
        is also all the flow usage counts, so the two csr matrices are
        identical by construction and the fabric holds one: ``usage``
        *is* :meth:`flow_usage`."""

        def build():
            if not self._wireless:
                usage = self.flow_usage(bulk)
            else:
                usage = self._billed_usage(bulk)
            # The csr already summed duplicates, so its structure with
            # unit data is the membership; it shares indices/indptr.
            binary_usage = csr_matrix(
                (np.ones_like(usage.data), usage.indices, usage.indptr),
                shape=usage.shape,
            )
            return usage, binary_usage

        return self.product(("usage", self.routing_key(bulk)), build)

    def _billed_usage(self, bulk: bool):
        """The usage csr of a fabric with wireless links: each hop
        bills its wire direction, or its wireless channel."""
        link_col, chan_col = self.edge_columns()
        billed_col = np.where(chan_col >= 0, chan_col, link_col)
        parts = []
        for _, _, walk in self.walks(bulk):
            order = walk.order
            rows, cols = [], []
            for u, v in walk.steps():
                rows.append(order[: len(u)])
                cols.append(billed_col[u, v])
            parts.append(
                usage_block(rows, cols, len(order), self.num_resources, self.dtype)
            )
        return stack_usage(parts)

    def flow_usage(self, bulk: bool = False):
        """Sparse (n*n, resources) pair -> resource usage counts of flow
        registration.

        Row ``src * n + dst`` counts how often that pair's path crosses
        each directed link (wire *and* wireless) and each shared wireless
        channel; the column layout is
        :meth:`repro.noc.network.FlowNetworkModel.apply_resource_load`'s.
        """

        def build():
            link_col, chan_col = self.edge_columns()
            parts = []
            for _, _, walk in self.walks(bulk):
                order = walk.order
                rows, cols = [], []
                for u, v in walk.steps():
                    route = order[: len(u)]
                    rows.append(route)
                    cols.append(link_col[u, v])
                    channel = chan_col[u, v]
                    on_channel = channel >= 0
                    rows.append(route[on_channel])
                    cols.append(channel[on_channel])
                parts.append(
                    usage_block(rows, cols, len(order), self.num_resources, self.dtype)
                )
            return stack_usage(parts)

        return self.product(("flow_usage", self.routing_key(bulk)), build)

    def pairwise(self, bulk: bool, params) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(energy_per_bit, hops, wireless_links)`` per (src, dst) pair
        under the :class:`repro.noc.energy.NocEnergyParams` *params*:
        joules per bit moved, hops, and wireless hops on the path.  Each
        hop's terms add in path order."""

        def build():
            n = self.num_nodes
            # Per-hop energy beyond the hop's router, and wireless hops.
            hop_pj = np.zeros((n, n))
            hop_wireless = np.zeros((n, n))
            for link in self.topology.links:
                if link.kind is LinkKind.WIRELESS:
                    pj, wireless = params.wireless_pj_per_bit, 1.0
                else:
                    pj = params.wire_pj_per_bit_per_mm * link.length_mm
                    wireless = 0.0
                hop_pj[link.a, link.b] = hop_pj[link.b, link.a] = pj
                hop_wireless[link.a, link.b] = hop_wireless[link.b, link.a] = wireless
            energy_per_bit = np.empty((n, n), dtype=self.dtype)  # joules per bit
            hops = np.empty((n, n), dtype=self.dtype)
            wireless_links = np.empty((n, n), dtype=self.dtype)
            for start, end, walk in self.walks(bulk):
                order = walk.order
                pj_per_bit = np.full(len(order), params.router_pj_per_bit)  # ejection
                route_hops = np.zeros(len(order))
                route_wireless = np.zeros(len(order))
                for u, v in walk.steps():
                    walking = slice(len(u))
                    pj_per_bit[walking] += params.router_pj_per_bit
                    pj_per_bit[walking] += hop_pj[u, v]
                    route_hops[walking] += 1.0
                    route_wireless[walking] += hop_wireless[u, v]
                pj_per_bit[route_hops == 0] = 0.0  # src == dst moves nothing
                energy_per_bit[start:end] = unsort(pj_per_bit * 1e-12, order, n)
                hops[start:end] = unsort(route_hops, order, n)
                wireless_links[start:end] = unsort(route_wireless, order, n)
            return energy_per_bit, hops, wireless_links

        return self.product(("pairwise", self.routing_key(bulk), params), build)
