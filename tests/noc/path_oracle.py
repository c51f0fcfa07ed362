"""The per-packet NoC path model: the reference the all-pairs tables are
checked against.

The simulator evaluates every NoC quantity -- loaded latency, effective
path capacity, flow load, transfer energy and flit counters -- from the
all-pairs tables of :mod:`repro.noc.dense` and
:meth:`repro.noc.network.FlowNetworkModel._flow_usage`, which one
vectorized walk over each routing's predecessor matrix builds.  Before
the tables, ``FlowNetworkModel`` and ``NocEnergyModel`` evaluated the
same formulas one packet at a time, by walking the pair's path link by
link, and the mesh routed through a geometric XY walk.  Those methods
are kept here verbatim as the oracle:

* :class:`PathModel` -- ``add_flow``, ``latency``, ``path_capacity``,
  ``record_transfer`` and ``_path``, as a view over a product
  :class:`~repro.noc.network.FlowNetworkModel`: it reads the model's
  fabric, clocks, loads, tracer and flit counter, and keeps the link
  index, path caches and energy counters the methods need.
* :class:`PathEnergyModel` -- ``transfer_energy``.
* :func:`xy_route` -- dimension-ordered mesh routing from coordinates.

``tests/noc/test_dense.py`` compares the tables with these methods at
every (src, dst) pair; ``tests/noc/table_oracles.py`` builds its
per-pair reference tables from :meth:`PathModel._path`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.noc.energy import NocEnergyModel
from repro.noc.network import FlowNetworkModel
from repro.noc.topology import GridGeometry, Link, LinkKind
from repro.utils.units import PJ


class PathEnergyModel(NocEnergyModel):
    """:class:`NocEnergyModel` with its per-path energy accumulation."""

    def transfer_energy(self, links: Iterable[Link], bits: float) -> float:
        """Energy (J) to move *bits* along *links*; also accumulates."""
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        params = self.params
        energy_pj = 0.0
        hops = 0
        wireless_bits = 0.0
        for link in links:
            hops += 1
            energy_pj += params.router_pj_per_bit * bits
            if link.kind is LinkKind.WIRELESS:
                energy_pj += params.wireless_pj_per_bit * bits
                wireless_bits += bits
            else:
                energy_pj += params.wire_pj_per_bit_per_mm * link.length_mm * bits
        # Ejection router at the destination.
        energy_pj += params.router_pj_per_bit * bits
        energy = energy_pj * PJ
        self.dynamic_joules += energy
        self.bits_moved += bits
        self.bit_hops += bits * hops
        self.wireless_bits += wireless_bits
        return energy


class PathModel:
    """Per-packet view of a :class:`FlowNetworkModel`.

    Attribute reads the view does not define fall through to *model*,
    so ``add_flow`` registers load on the model itself and
    ``record_transfer`` feeds the model's tracer; energy accumulates in
    the view's own :class:`PathEnergyModel`.
    """

    def __init__(self, model: FlowNetworkModel):
        self.model = model
        self.energy = PathEnergyModel(model.energy.params)
        self._link_index: Dict[frozenset, int] = {
            link.key: index for index, link in enumerate(model.topology.links)
        }
        # Path caches: (src, dst) -> (links, directions)
        self._path_cache: Dict[Tuple[int, int], Tuple[List[Link], List[int]]] = {}
        self._bulk_path_cache: Dict[Tuple[int, int], Tuple[List[Link], List[int]]] = {}

    def __getattr__(self, name: str):
        return getattr(self.model, name)

    def add_flow(
        self, src: int, dst: int, bits_per_s: float, bulk: bool = False
    ) -> None:
        """Register sustained traffic from *src* to *dst*."""
        if bits_per_s < 0:
            raise ValueError(f"bits_per_s must be >= 0, got {bits_per_s}")
        if src == dst or bits_per_s == 0:
            return
        for link, direction in zip(*self._path(src, dst, bulk=bulk)):
            index = self._link_index[link.key]
            self.load.link_load[index, direction] += bits_per_s
            if link.kind is LinkKind.WIRELESS:
                self.load.channel_load[link.channel] += bits_per_s

    def latency(
        self, src: int, dst: int, payload_bits: float, bulk: bool = False
    ) -> float:
        """Latency (s) of one packet of *payload_bits* from *src* to *dst*."""
        if payload_bits < 0:
            raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
        if src == dst:
            # Local port: one router traversal.
            return self.params.router_pipeline_cycles / self._node_freq[src]
        params = self.params
        head = 0.0
        bottleneck = np.inf
        links, directions = self._path(src, dst, bulk=bulk)
        node = src
        for link, direction in zip(links, directions):
            peer = link.other(node)
            f_node = self._node_freq[node]
            head += params.router_pipeline_cycles / f_node
            index = self._link_index[link.key]
            if link.kind is LinkKind.WIRELESS:
                capacity = self.wireless.bandwidth_bps
                rho = min(
                    self.load.channel_load[link.channel] / capacity,
                    params.max_utilization,
                )
                service = params.flit_bits / capacity
                head += self.wireless.propagation_s + self.wireless.token_overhead_s
                buffer_flits = params.wi_buffer_flits
            else:
                f_link = min(f_node, self._node_freq[peer])
                capacity = params.flit_bits * f_link / params.link_traversal_cycles
                rho = min(
                    self.load.link_load[index, direction] / capacity,
                    params.max_utilization,
                )
                service = params.link_traversal_cycles / f_link
                head += service
                buffer_flits = params.wire_buffer_flits
            # M/D/1 waiting time, bounded by the port's finite buffer
            # (at most depth-1 flits can be queued in front).
            wait = min(
                service * rho / (2.0 * (1.0 - rho)),
                (buffer_flits - 1) * service,
            )
            head += wait
            if link.kind is LinkKind.WIRELESS and self._tracer.enabled:
                # Channel-access wait: token acquisition + queueing.
                self._tracer.histogram_record(
                    f"noc.token_wait_s/{self.trace_label}",
                    self.wireless.token_overhead_s + wait,
                )
            if self.clusters[node] != self.clusters[peer]:
                head += params.domain_sync_cycles / min(
                    f_node, self._node_freq[peer]
                )
            bottleneck = min(bottleneck, capacity)
            node = peer
        # Ejection pipeline at the destination router.
        head += params.router_pipeline_cycles / self._node_freq[dst]
        return head + payload_bits / bottleneck

    def path_capacity(self, src: int, dst: int, bulk: bool = False) -> float:
        """Effective bottleneck throughput (bits/s) of the (src,dst) path."""
        if src == dst:
            return np.inf
        params = self.params
        bottleneck = np.inf
        links, directions = self._path(src, dst, bulk=bulk)
        node = src
        for link, direction in zip(links, directions):
            peer = link.other(node)
            index = self._link_index[link.key]
            if link.kind is LinkKind.WIRELESS:
                capacity = self.wireless.bandwidth_bps
                rho = min(
                    self.load.channel_load[link.channel] / capacity,
                    params.max_utilization,
                )
            else:
                f_link = min(self._node_freq[node], self._node_freq[peer])
                capacity = params.flit_bits * f_link / params.link_traversal_cycles
                rho = min(
                    self.load.link_load[index, direction] / capacity,
                    params.max_utilization,
                )
            bottleneck = min(bottleneck, capacity * (1.0 - rho))
            node = peer
        return bottleneck

    def record_transfer(
        self, src: int, dst: int, bits: float, bulk: bool = False
    ) -> float:
        """Account the energy of moving *bits* from *src* to *dst*."""
        if src == dst:
            return 0.0
        links, _ = self._path(src, dst, bulk=bulk)
        if self._tracer.enabled:
            self._count_flits(links, bits)
        return self.energy.transfer_energy(links, bits)

    def _path(
        self, src: int, dst: int, bulk: bool = False
    ) -> Tuple[List[Link], List[int]]:
        cache = self._bulk_path_cache if bulk else self._path_cache
        key = (src, dst)
        cached = cache.get(key)
        if cached is not None:
            return cached
        routing = self.bulk_routing if bulk else self.routing
        nodes = routing.path(src, dst)
        links: List[Link] = []
        directions: List[int] = []
        for a, b in zip(nodes, nodes[1:]):
            link = self.topology.find_link(a, b)
            links.append(link)
            directions.append(0 if a == link.a else 1)
        cache[key] = (links, directions)
        return links, directions


def xy_route(geometry: GridGeometry, src: int, dst: int) -> List[int]:
    """Dimension-ordered (X then Y) mesh route, inclusive of endpoints."""
    sx, sy = geometry.coordinates(src)
    dx, dy = geometry.coordinates(dst)
    path = [src]
    x, y = sx, sy
    step = 1 if dx > x else -1
    while x != dx:
        x += step
        path.append(geometry.node_at(x, y))
    step = 1 if dy > y else -1
    while y != dy:
        y += step
        path.append(geometry.node_at(x, y))
    return path
