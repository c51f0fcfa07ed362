"""Wireless-interface placement and the two methodologies of Sec. 6.

The paper proposes two ways to place the 12 WIs (3 channels x 4 clusters)
and map threads:

1. **Minimized hop count** -- threads are first mapped to minimize the
   distance of highly communicating cores, then simulated annealing
   searches WI placements minimizing the *traffic-weighted average hop
   count*.
2. **Maximized wireless utilization** -- WIs sit at each cluster's center
   so most cores have cheap wireless access, and the thread mapping
   places heavily communicating threads near WIs ("logically near,
   physically far").

This module implements the placement half of both; thread mapping lives
in :mod:`repro.mapping.thread_mapping`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.noc.topology import GridGeometry, LinkKind, Topology
from repro.noc.wireless import WirelessSpec, assign_wireless_links
from repro.utils.rng import SeedLike, derive_rng

Placement = Dict[int, List[int]]


def cluster_members(clusters: Sequence[int]) -> Dict[int, List[int]]:
    members: Dict[int, List[int]] = {}
    for node, cid in enumerate(clusters):
        members.setdefault(cid, []).append(node)
    return members


def center_wireless_placement(
    geometry: GridGeometry,
    clusters: Sequence[int],
    num_channels: int = 3,
) -> Placement:
    """WIs at each cluster's geometric center (max-wireless-utilization).

    Per cluster, the ``num_channels`` nodes closest to the cluster
    centroid get one WI each; channel *c* takes the *c*-th closest node,
    so the assignment is deterministic.
    """
    members = cluster_members(clusters)
    placement: Placement = {channel: [] for channel in range(num_channels)}
    for cid in sorted(members):
        nodes = members[cid]
        if len(nodes) < num_channels:
            raise ValueError(
                f"cluster {cid} has {len(nodes)} nodes < {num_channels} channels"
            )
        coordinates = np.array([geometry.coordinates(node) for node in nodes])
        centroid = coordinates.mean(axis=0)
        distances = np.linalg.norm(coordinates - centroid, axis=1)
        order = np.lexsort((nodes, distances))  # distance, then node id
        for channel in range(num_channels):
            placement[channel].append(nodes[order[channel]])
    return placement


def traffic_weighted_cost(
    topology: Topology,
    traffic: np.ndarray,
    wireless_hop_weight: float = 1.2,
) -> float:
    """Traffic-weighted mean routing distance over *topology*.

    Wire hops weigh 1, wireless hops ``wireless_hop_weight`` (matching the
    routing metric), so the cost is exactly what the deterministic router
    optimizes -- the SA objective of methodology 1.
    """
    n = topology.num_nodes
    if traffic.shape != (n, n):
        raise ValueError(f"traffic {traffic.shape} does not match {n} nodes")
    from repro.noc.routing import default_link_weight

    rows, cols, data = [], [], []
    for link in topology.links:
        weight = (
            wireless_hop_weight
            if link.kind is LinkKind.WIRELESS
            else default_link_weight(link)
        )
        rows.extend((link.a, link.b))
        cols.extend((link.b, link.a))
        data.extend((weight, weight))
    graph = csr_matrix((data, (rows, cols)), shape=(n, n))
    distance = dijkstra(graph, directed=False)
    if np.isinf(distance).any():
        return float("inf")
    total = traffic.sum()
    if total <= 0:
        return 0.0
    return float((distance * traffic).sum() / total)


def optimize_wireless_placement(
    wireline: Topology,
    clusters: Sequence[int],
    traffic: np.ndarray,
    spec: WirelessSpec = WirelessSpec(),
    iterations: int = 400,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.985,
    seed: SeedLike = None,
) -> Placement:
    """Simulated-annealing WI placement (min-hop-count methodology).

    Starts from the center placement and anneals single-WI moves within
    clusters, minimizing the traffic-weighted routing distance of the
    combined wireline + wireless topology.
    """
    members = cluster_members(clusters)
    rng = derive_rng(seed)

    def evaluate(placement: Placement) -> float:
        topology = assign_wireless_links(wireline, placement, spec)
        return traffic_weighted_cost(topology, traffic)

    current = {
        channel: list(nodes)
        for channel, nodes in center_wireless_placement(
            wireline.geometry, clusters, spec.num_channels
        ).items()
    }
    current_cost = evaluate(current)
    best, best_cost = _copy_placement(current), current_cost

    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(current_cost * 0.1, 1e-6)
    )
    cluster_ids = sorted(members)
    for _ in range(iterations):
        candidate = _copy_placement(current)
        channel = int(rng.integers(spec.num_channels))
        slot = int(rng.integers(len(cluster_ids)))
        cid = cluster_ids[slot]
        occupied = {
            candidate[c][slot] for c in range(spec.num_channels)
        }
        free_nodes = [n for n in members[cid] if n not in occupied]
        if not free_nodes:
            continue
        candidate[channel][slot] = int(rng.choice(free_nodes))
        candidate_cost = evaluate(candidate)
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
            current, current_cost = candidate, candidate_cost
            if current_cost < best_cost:
                best, best_cost = _copy_placement(current), current_cost
        temperature *= cooling
    return best


def _copy_placement(placement: Placement) -> Placement:
    return {channel: list(nodes) for channel, nodes in placement.items()}
