"""Thread-to-core mapping.

A mapping assigns each logical worker (thread) of the MapReduce runtime to
one physical core/switch node.  The VFI clustering constrains it: cluster
*j*'s workers must land on island *j*'s quadrant so the island's V/F
matches the workers' utilization class.  Within that constraint the paper
uses two strategies (Sec. 6):

1. **communication-aware** (min-hop-count methodology): place highly
   communicating workers physically close -- simulated annealing over
   within-island permutations minimizing traffic-weighted grid distance;
2. **wireless-centric** ("logically near, physically far", max-wireless-
   utilization methodology): within each island rank nodes by distance to
   the island's WIs and give the nodes nearest a WI to the workers with
   the most *inter-island* traffic, funneling long-range flits onto the
   energy-efficient wireless links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.noc.topology import GridGeometry
from repro.utils.rng import RawDraws, SeedLike, derive_rng
from repro.vfi.islands import VfiLayout


@dataclass(frozen=True)
class ThreadMapping:
    """Bijection between workers and nodes."""

    worker_to_node: Tuple[int, ...]

    def __post_init__(self) -> None:
        nodes = set(self.worker_to_node)
        if len(nodes) != len(self.worker_to_node):
            raise ValueError("mapping is not a bijection (repeated node)")

    @property
    def num_workers(self) -> int:
        return len(self.worker_to_node)

    def node_of(self, worker: int) -> int:
        return self.worker_to_node[worker]

    def node_to_worker(self) -> Dict[int, int]:
        return {node: worker for worker, node in enumerate(self.worker_to_node)}

    def map_traffic(self, worker_traffic: np.ndarray) -> np.ndarray:
        """Re-index a worker x worker traffic matrix to node x node."""
        n = self.num_workers
        if worker_traffic.shape != (n, n):
            raise ValueError(
                f"traffic {worker_traffic.shape} does not match {n} workers"
            )
        size = max(self.worker_to_node) + 1
        node_traffic = np.zeros((size, size))
        nodes = np.asarray(self.worker_to_node)
        node_traffic[np.ix_(nodes, nodes)] = worker_traffic
        return node_traffic


def identity_mapping(num_workers: int) -> ThreadMapping:
    """Worker *i* on node *i* (the NVFI baseline's trivial placement)."""
    if num_workers <= 0:
        raise ValueError(f"num_workers must be > 0, got {num_workers}")
    return ThreadMapping(tuple(range(num_workers)))


def _grid_distance_matrix(geometry: GridGeometry) -> np.ndarray:
    # All-pairs Manhattan distance in one broadcast: the O(n^2) Python
    # loop dominated mapping setup on 128/256-core dies.
    nodes = np.arange(geometry.num_nodes)
    columns = nodes % geometry.columns
    rows = nodes // geometry.columns
    return (
        np.abs(columns[:, None] - columns[None, :])
        + np.abs(rows[:, None] - rows[None, :])
    ).astype(float)


def _initial_cluster_mapping(
    worker_clusters: Sequence[int], layout: VfiLayout
) -> List[int]:
    """Deterministic seed: cluster j's workers fill island j's nodes in
    index order."""
    members = layout.members()
    cursors = {cid: 0 for cid in members}
    mapping = []
    for worker, cid in enumerate(worker_clusters):
        if cid not in members:
            raise ValueError(f"worker {worker} in unknown cluster {cid}")
        nodes = members[cid]
        if cursors[cid] >= len(nodes):
            raise ValueError(
                f"cluster {cid} has more workers than island nodes"
            )
        mapping.append(nodes[cursors[cid]])
        cursors[cid] += 1
    return mapping


def mapping_cost(
    mapping: Sequence[int], traffic: np.ndarray, distance: np.ndarray
) -> float:
    """Traffic-weighted total grid distance of a mapping."""
    nodes = np.asarray(mapping)
    return _priced(traffic, distance[np.ix_(nodes, nodes)])


def _priced(traffic: np.ndarray, worker_distance: np.ndarray) -> float:
    """Traffic-weighted distance from the worker x worker distances."""
    return float((traffic * worker_distance).sum())


def _swap_workers(
    worker_distance: np.ndarray, a: int, b: int, spare: np.ndarray
) -> None:
    """Re-index the worker x worker distances after workers *a* and *b*
    trade nodes: their rows trade places, then their columns (through
    the length-n *spare*)."""
    for view in (worker_distance, worker_distance.T):
        spare[:] = view[a]
        view[a] = view[b]
        view[b] = spare


def communication_aware_mapping(
    worker_clusters: Sequence[int],
    layout: VfiLayout,
    traffic: np.ndarray,
    iterations: int = 2000,
    seed: SeedLike = None,
) -> ThreadMapping:
    """SA mapping minimizing traffic-weighted distance within islands.

    Moves swap the nodes of two workers in the *same* cluster, so the
    cluster-to-island constraint holds by construction.  The gathered
    worker x worker distances live across moves: a swap trades two rows
    and two columns instead of gathering all n^2 entries again, and the
    candidate is priced by the same full sum as :func:`mapping_cost`.
    The draws come from :class:`~repro.utils.rng.RawDraws` (the same
    values and final generator state as ``rng.integers`` /
    ``rng.random``).
    """
    num_workers = len(worker_clusters)
    if traffic.shape != (num_workers, num_workers):
        raise ValueError("traffic shape does not match workers")
    rng = derive_rng(seed)
    distance = _grid_distance_matrix(layout.geometry)
    mapping = _initial_cluster_mapping(worker_clusters, layout)
    current_cost = mapping_cost(mapping, traffic, distance)
    best, best_cost = list(mapping), current_cost
    temperature = max(0.05 * current_cost, 1e-9)
    clusters = np.asarray(worker_clusters).tolist()
    nodes = np.asarray(mapping)
    worker_distance = distance[np.ix_(nodes, nodes)]
    spare = np.empty(num_workers)
    with RawDraws(rng) as draws:
        for _ in range(iterations):
            a, b = draws.below(num_workers), draws.below(num_workers)
            if a == b or clusters[a] != clusters[b]:
                continue
            mapping[a], mapping[b] = mapping[b], mapping[a]
            _swap_workers(worker_distance, a, b, spare)
            candidate_cost = _priced(traffic, worker_distance)
            delta = candidate_cost - current_cost
            if delta <= 0 or draws.uniform() < math.exp(
                -delta / max(temperature, 1e-15)
            ):
                current_cost = candidate_cost
                if current_cost < best_cost:
                    best, best_cost = list(mapping), current_cost
            else:
                mapping[a], mapping[b] = mapping[b], mapping[a]  # revert
                _swap_workers(worker_distance, a, b, spare)
            temperature *= 0.998
    repriced = mapping_cost(best, traffic, distance)
    if repriced != best_cost:
        raise RuntimeError(
            f"annealed mapping cost {best_cost!r} does not re-price "
            f"({repriced!r})"
        )
    return ThreadMapping(tuple(best))


def wireless_centric_mapping(
    worker_clusters: Sequence[int],
    layout: VfiLayout,
    traffic: np.ndarray,
    wi_nodes: Sequence[int],
    seed: SeedLike = None,
) -> ThreadMapping:
    """"Logically near, physically far" mapping toward island WIs.

    Within each island, nodes are ranked by grid distance to the island's
    nearest WI; workers are ranked by their inter-island traffic volume;
    rank *k* worker takes rank *k* node.  Heavy long-range communicators
    therefore sit next to a wireless port.
    """
    num_workers = len(worker_clusters)
    if traffic.shape != (num_workers, num_workers):
        raise ValueError("traffic shape does not match workers")
    if not wi_nodes:
        raise ValueError("wi_nodes is empty")
    geometry = layout.geometry
    clusters = np.asarray(worker_clusters)
    volume = traffic + traffic.T
    inter_mask = clusters[:, None] != clusters[None, :]
    inter_volume = (volume * inter_mask).sum(axis=1)

    mapping = [-1] * num_workers
    for cid, nodes in layout.members().items():
        island_wis = [n for n in wi_nodes if layout.cluster_of(n) == cid]
        anchors = island_wis or list(wi_nodes)
        ranked_nodes = sorted(
            nodes,
            key=lambda node: (
                min(geometry.manhattan_hops(node, wi) for wi in anchors),
                node,
            ),
        )
        island_workers = [w for w in range(num_workers) if clusters[w] == cid]
        if len(island_workers) > len(ranked_nodes):
            raise ValueError(f"cluster {cid} has more workers than nodes")
        ranked_workers = sorted(
            island_workers, key=lambda w: (-inter_volume[w], w)
        )
        for worker, node in zip(ranked_workers, ranked_nodes):
            mapping[worker] = node
    return ThreadMapping(tuple(mapping))
