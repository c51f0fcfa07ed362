"""Routing: dimension-ordered XY for the mesh, weighted shortest-path
tables for irregular (small-world / wireless) topologies.

Both wireline and wireless links use wormhole switching (paper Sec. 7);
routing is deterministic, so each (source, destination) pair maps to one
fixed path -- which is what lets the flow model attribute traffic to
links exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.noc.topology import GridGeometry, Link, LinkKind, Topology


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


class RoutingTable:
    """All-pairs deterministic paths over a topology.

    Paths are materialized lazily from a Dijkstra predecessor matrix and
    cached; ``path(src, dst)`` returns the node sequence inclusive of both
    endpoints (``[src]`` when ``src == dst``).
    """

    def __init__(self, topology: Topology, predecessors: np.ndarray):
        self.topology = topology
        self._predecessors = predecessors
        self._cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._hop_matrix: Optional[np.ndarray] = None

    def path(self, src: int, dst: int) -> Tuple[int, ...]:
        if src == dst:
            return (src,)
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        nodes = [dst]
        node = dst
        while node != src:
            node = int(self._predecessors[src, node])
            if node < 0:
                raise RuntimeError(f"no route from {src} to {dst}")
            nodes.append(node)
        nodes.reverse()
        path = tuple(nodes)
        self._cache[key] = path
        return path

    def links_on_path(self, src: int, dst: int) -> List[Link]:
        path = self.path(src, dst)
        return [
            self.topology.find_link(a, b) for a, b in zip(path, path[1:])
        ]

    def hop_count(self, src: int, dst: int) -> int:
        return len(self.path(src, dst)) - 1

    def predecessor_matrix(self) -> np.ndarray:
        """All-pairs predecessor table: ``pred[src, dst]`` is the node
        before *dst* on the deterministic route from *src* (negative on
        the diagonal).  This is what the all-pairs table builders walk in
        vectorized lockstep (:mod:`repro.noc.pathwalk`) instead of
        materializing per-pair paths.
        """
        if self._predecessors.size == 0:
            raise NotImplementedError(
                "this routing table does not expose a predecessor matrix"
            )
        return self._predecessors

    def hop_matrix(self) -> np.ndarray:
        """All-pairs hop counts along the table's deterministic routes.

        Computed once and cached (routes never change after construction):
        each source row walks every destination's predecessor chain in
        lockstep, so the cost is O(n * diameter) vectorized steps instead
        of O(n^2) Python path walks per call.
        """
        if self._hop_matrix is None:
            self._hop_matrix = self._build_hop_matrix()
        return self._hop_matrix

    def _build_hop_matrix(self) -> np.ndarray:
        n = self.topology.num_nodes
        hops = np.zeros((n, n), dtype=int)
        if self._predecessors.size == 0:
            # Geometry-routed subclasses materialize paths lazily; fall
            # back to walking them (still cached across calls).
            for src in range(n):
                for dst in range(n):
                    if src != dst:
                        hops[src, dst] = self.hop_count(src, dst)
            return hops
        destinations = np.arange(n)
        for src in range(n):
            predecessors = self._predecessors[src]
            current = destinations.copy()
            alive = current != src
            steps = np.zeros(n, dtype=int)
            while alive.any():
                steps[alive] += 1
                current = np.where(alive, predecessors[current], current)
                if (current[alive] < 0).any():
                    broken = destinations[alive & (current < 0)]
                    raise RuntimeError(
                        f"no route from {src} to {broken.tolist()}"
                    )
                alive = current != src
            hops[src] = steps
        return hops


#: Grid pitch used to normalize wire lengths in routing weights.
NOMINAL_PITCH_MM = 2.5


def default_link_weight(link: Link) -> float:
    """Nominal per-hop routing weight.

    A wire hop costs a router traversal (0.6) plus a wire term scaled by
    its physical length (0.4 per pitch): hop-minimal routing alone would
    happily take two long diagonal links covering far more wire
    millimeters than the Manhattan distance, which costs both energy
    (pJ/bit/mm) and repeater latency -- so the weight penalizes length,
    as deterministic routers over express channels do.  A unit-pitch wire
    keeps weight 1.0, so mesh routing is unchanged.

    A wireless hop costs 1.2: a router traversal plus token/propagation
    overhead but no distance term, which is exactly why wireless wins for
    long-range transfers (paper Sec. 6 and the energy crossover of
    :mod:`repro.noc.energy`).
    """
    if link.kind is LinkKind.WIRELESS:
        return 1.2
    return 0.6 + 0.4 * (link.length_mm / NOMINAL_PITCH_MM)


def build_routing_table(
    topology: Topology,
    weight: Optional[Callable[[Link], float]] = None,
) -> RoutingTable:
    """Weighted shortest-path routing table (deterministic tie-breaks)."""
    weight = weight or default_link_weight
    n = topology.num_nodes
    rows, cols, data = [], [], []
    for link in topology.links:
        w = weight(link)
        if w <= 0:
            raise ValueError(f"link weight must be > 0, got {w} for {link}")
        # Deterministic micro-perturbation breaks ties identically across
        # runs and platforms (no dict-order dependence).
        w = w * (1.0 + 1e-9 * ((link.a * 131 + link.b * 17) % 97))
        rows.extend((link.a, link.b))
        cols.extend((link.b, link.a))
        data.extend((w, w))
    graph = csr_matrix((data, (rows, cols)), shape=(n, n))
    _dist, predecessors = dijkstra(
        graph, directed=False, return_predecessors=True
    )
    if np.isinf(_dist).any():
        raise ValueError(f"topology {topology.name!r} is not connected")
    return RoutingTable(topology, predecessors)


def build_mesh_routing(topology: Topology) -> "MeshRoutingTable":
    """XY routing for a mesh topology."""
    return MeshRoutingTable(topology)


class MeshRoutingTable(RoutingTable):
    """Dimension-ordered XY routing (the mesh baseline's deterministic
    router), exposed through the same interface as :class:`RoutingTable`."""

    def __init__(self, topology: Topology):
        # No Dijkstra predecessor matrix needed; paths come from XY
        # geometry (a predecessor view is synthesized on demand).
        super().__init__(topology, predecessors=np.empty((0, 0)))
        self._xy_predecessors: Optional[np.ndarray] = None

    def path(self, src: int, dst: int) -> Tuple[int, ...]:
        if src == dst:
            return (src,)
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is None:
            cached = tuple(xy_route(self.topology.geometry, src, dst))
            self._cache[key] = cached
        return cached

    def predecessor_matrix(self) -> np.ndarray:
        """Synthesized XY predecessors: walking back from *dst*, the Y leg
        unwinds first (XY routes move X then Y), then the X leg."""
        if self._xy_predecessors is None:
            geometry = self.topology.geometry
            n = geometry.num_nodes
            nodes = np.arange(n)
            columns = nodes % geometry.columns
            rows = nodes // geometry.columns
            drow = rows[None, :] - rows[:, None]  # dst_row - src_row
            dcol = columns[None, :] - columns[:, None]
            pred = np.where(
                drow != 0,
                nodes[None, :] - np.sign(drow) * geometry.columns,
                nodes[None, :] - np.sign(dcol),
            ).astype(np.int32)
            np.fill_diagonal(pred, -9999)
            self._xy_predecessors = pred
        return self._xy_predecessors

    def _build_hop_matrix(self) -> np.ndarray:
        # An XY route is exactly the Manhattan walk between the endpoints.
        geometry = self.topology.geometry
        nodes = np.arange(geometry.num_nodes)
        columns = nodes % geometry.columns
        rows = nodes // geometry.columns
        return np.abs(columns[:, None] - columns[None, :]) + np.abs(
            rows[:, None] - rows[None, :]
        )


def average_weighted_hops(
    table: RoutingTable, traffic: np.ndarray
) -> float:
    """Traffic-weighted mean hop count (the SA placement objective).

    Vectorized over the table's cached hop matrix, so repeated objective
    evaluations (one per SA move) cost one masked reduction instead of an
    O(n^2) Python walk.  Diagonal and non-positive entries are excluded,
    matching the original per-pair loop.
    """
    n = table.topology.num_nodes
    if traffic.shape != (n, n):
        raise ValueError(f"traffic matrix {traffic.shape} does not match {n} nodes")
    mask = traffic > 0
    np.fill_diagonal(mask, False)
    total_traffic = float(traffic.sum(where=mask))
    if total_traffic == 0:
        return 0.0
    hops = table.hop_matrix()
    total_hops = float((traffic * hops).sum(where=mask))
    return total_hops / total_traffic
