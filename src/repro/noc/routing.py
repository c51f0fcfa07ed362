"""Routing: dimension-ordered XY for the mesh, weighted shortest-path
tables for irregular (small-world / wireless) topologies.

Both wireline and wireless links use wormhole switching (paper Sec. 7);
routing is deterministic, so each (source, destination) pair maps to one
fixed path -- which is what lets the flow model attribute traffic to
links exactly.  Every routing is one all-pairs predecessor matrix
(:class:`RoutingTable`): Dijkstra's on irregular fabrics, synthesized
from grid coordinates for XY.  The all-pairs NoC tables walk it in
vectorized lockstep (:mod:`repro.noc.pathwalk`); :meth:`RoutingTable.path`
walks one pair.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.noc.pathwalk import _describe_cycle
from repro.noc.topology import Link, LinkKind, Topology


class RoutingTable:
    """All-pairs deterministic routes over a topology, as a predecessor
    matrix (:meth:`predecessor_matrix`).

    ``path(src, dst)`` walks one pair's chain back and returns the node
    sequence inclusive of both endpoints (``(src,)`` when ``src == dst``).
    """

    def __init__(self, topology: Topology, predecessors: np.ndarray):
        self.topology = topology
        self._predecessors = predecessors

    def path(self, src: int, dst: int) -> Tuple[int, ...]:
        pred = self.predecessor_matrix()[src]
        nodes = [dst]
        while nodes[-1] != src:
            # A route visits each node at most once, so a chain of n
            # nodes that has not reached src is caught in a cycle.
            if len(nodes) == len(pred):
                raise RuntimeError(
                    f"predecessor chains do not terminate: "
                    f"{_describe_cycle(pred, src, dst, len(pred))}"
                )
            node = int(pred[nodes[-1]])
            if node < 0:
                raise RuntimeError(f"no route from {src} to {dst}")
            nodes.append(node)
        return tuple(reversed(nodes))

    def hop_count(self, src: int, dst: int) -> int:
        return len(self.path(src, dst)) - 1

    def predecessor_matrix(self) -> np.ndarray:
        """All-pairs predecessor table: ``pred[src, dst]`` is the node
        before *dst* on the deterministic route from *src* (negative on
        the diagonal).  This is what the all-pairs table builders walk in
        vectorized lockstep (:mod:`repro.noc.pathwalk`) instead of
        materializing per-pair paths.
        """
        return self._predecessors


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


def build_mesh_routing(topology: Topology) -> RoutingTable:
    """XY routing for a mesh topology.

    The predecessors are synthesized from grid coordinates: walking back
    from *dst*, the Y leg unwinds first (XY routes move X then Y), then
    the X leg.
    """
    geometry = topology.geometry
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
    return RoutingTable(topology, pred)
