"""Reference small-world builder: one Python distance per candidate pair.

``build_small_world`` as it was before the wiring weights came from a
table indexed by (|dx|, |dy|) and ``_weighted_order`` drew its picks
without ``Generator.choice``: each candidate's power-law weight is one
``GridGeometry.distance_mm`` call, and each pick of a spanning-tree
peer is one ``rng.choice(p=...)``.  Kept verbatim as an oracle:
``tests/noc/test_smallworld.py`` asserts the product builder returns
the same link list and leaves the generator in the same state.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.noc.smallworld import (
    SmallWorldConfig,
    _inter_cluster_quotas,
    _sample_order,
)
from repro.noc.topology import GridGeometry, Link, LinkKind, Topology
from repro.utils.rng import SeedLike, derive_rng


def build_small_world(
    geometry: GridGeometry,
    clusters: Sequence[int],
    inter_cluster_traffic: Optional[np.ndarray] = None,
    config: SmallWorldConfig = SmallWorldConfig(),
    seed: SeedLike = None,
    name: str = "small-world",
) -> Topology:
    """Build the VFI-constrained small-world wireline topology.

    Parameters
    ----------
    geometry:
        Die layout (8x8 for the paper's platform).
    clusters:
        Cluster id per node (``clusters[node] -> cluster``).
    inter_cluster_traffic:
        Symmetric ``m x m`` matrix of traffic between clusters; link counts
        between cluster pairs are allocated proportionally.  ``None`` means
        uniform allocation.
    """
    if len(clusters) != geometry.num_nodes:
        raise ValueError(
            f"clusters has {len(clusters)} entries for {geometry.num_nodes} nodes"
        )
    rng = derive_rng(seed)
    cluster_ids = sorted(set(clusters))
    members: Dict[int, List[int]] = {
        cid: [n for n, c in enumerate(clusters) if c == cid] for cid in cluster_ids
    }
    for cid, nodes in members.items():
        if len(nodes) < 2:
            raise ValueError(f"cluster {cid} has fewer than 2 nodes")

    degrees = np.zeros(geometry.num_nodes, dtype=int)
    links: List[Link] = []
    existing: set = set()

    def try_add(a: int, b: int) -> bool:
        key = frozenset((a, b))
        if a == b or key in existing:
            return False
        if degrees[a] >= config.kmax or degrees[b] >= config.kmax:
            return False
        links.append(Link(a, b, LinkKind.WIRE, geometry.distance_mm(a, b)))
        existing.add(key)
        degrees[a] += 1
        degrees[b] += 1
        return True

    # ---------------- intra-cluster construction ---------------------- #
    for cid in cluster_ids:
        nodes = members[cid]
        target_links = int(round(len(nodes) * config.k_intra / 2.0))
        if target_links < len(nodes) - 1:
            raise ValueError(
                f"k_intra={config.k_intra} cannot connect a cluster of "
                f"{len(nodes)} nodes (needs >= {2 * (len(nodes) - 1) / len(nodes):.3f})"
            )
        # Spanning tree first (guaranteed connectivity), power-law biased.
        order = list(nodes)
        rng.shuffle(order)
        connected = [order[0]]
        for node in order[1:]:
            weights = np.array(
                [
                    _wiring_weight(geometry, node, peer, config.alpha_intra)
                    for peer in connected
                ]
            )
            for peer in _weighted_order(connected, weights, rng):
                if try_add(node, peer):
                    break
            else:
                raise RuntimeError(
                    f"could not attach node {node} within cluster {cid} "
                    f"(kmax={config.kmax} too tight)"
                )
            connected.append(node)
        # Remaining intra links by power-law sampling.
        _add_sampled_links(
            geometry,
            [(a, b) for a, b in itertools.combinations(nodes, 2)],
            target_links - (len(nodes) - 1),
            config.alpha_intra,
            rng,
            try_add,
        )

    # ---------------- inter-cluster construction ---------------------- #
    total_inter = int(round(geometry.num_nodes * config.k_inter / 2.0))
    pair_list = list(itertools.combinations(cluster_ids, 2))
    quotas = _inter_cluster_quotas(
        pair_list, cluster_ids, inter_cluster_traffic, total_inter
    )
    for (p, q), quota in quotas.items():
        candidates = [(a, b) for a in members[p] for b in members[q]]
        added = _add_sampled_links(
            geometry, candidates, quota, config.alpha_inter, rng, try_add
        )
        if added < quota:
            # Port caps can exhaust a pair; spill the remainder anywhere.
            _add_sampled_links(
                geometry,
                [
                    (a, b)
                    for a, b in itertools.combinations(range(geometry.num_nodes), 2)
                    if clusters[a] != clusters[b]
                ],
                quota - added,
                config.alpha_inter,
                rng,
                try_add,
            )

    topology = Topology(name=name, geometry=geometry, links=links)
    if not topology.is_connected():
        raise RuntimeError("small-world construction produced a disconnected network")
    return topology


def _wiring_weight(geometry: GridGeometry, a: int, b: int, alpha: float) -> float:
    distance = max(geometry.distance_mm(a, b), 1e-9)
    return distance**-alpha


def _weighted_order(
    items: Sequence[int], weights: np.ndarray, rng: np.random.Generator
) -> List[int]:
    """Items in random order biased by weights (without replacement)."""
    remaining = list(items)
    remaining_weights = np.array(weights, dtype=float)
    ordered: List[int] = []
    while remaining:
        probabilities = remaining_weights / remaining_weights.sum()
        index = int(rng.choice(len(remaining), p=probabilities))
        ordered.append(remaining.pop(index))
        remaining_weights = np.delete(remaining_weights, index)
    return ordered


def _add_sampled_links(
    geometry: GridGeometry,
    candidates: List[Tuple[int, int]],
    count: int,
    alpha: float,
    rng: np.random.Generator,
    try_add,
) -> int:
    """Sample *count* links from *candidates* with power-law probability."""
    if count <= 0 or not candidates:
        return 0
    weights = np.array(
        [_wiring_weight(geometry, a, b, alpha) for a, b in candidates]
    )
    added = 0
    for index in map(int, _sample_order(weights, rng)):
        if added >= count:
            break
        a, b = candidates[index]
        if try_add(a, b):
            added += 1
    return added
