"""Small-world wireline topology construction (paper Sec. 5).

The WiNoC's wireline fabric follows a power-law wiring-cost model
(Petermann & De Los Rios, 2005): the probability of a link between two
switches decays with their physical separation, ``P(a, b) ~ d(a, b)^-alpha``.
The paper constrains the construction for VFI platforms:

* the average switch degree ``<k>`` is 4, so the WiNoC "does not introduce
  any additional switch overhead with respect to a conventional mesh";
* a hard per-switch port cap ``kmax`` keeps switches realistic;
* ``<k>`` is split into ``<k_intra>`` (links inside each VFI cluster,
  guaranteeing cluster connectivity) and ``<k_inter>`` (links between
  clusters);
* the number of inter-cluster links between clusters *p* and *q* is
  proportional to the share of inter-cluster traffic the (p, q) pair
  carries.

The evaluated configuration is ``(k_intra, k_inter) = (3, 1)``; the
``(2, 2)`` alternative is kept for the Sec. 7.2 sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.noc.topology import GridGeometry, Link, LinkKind, Topology
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SmallWorldConfig:
    """Parameters of the constrained small-world construction.

    Separate wiring-cost exponents govern the two link populations:
    intra-cluster links are strongly distance-penalized (``alpha_intra``)
    so each island keeps mesh-like local connectivity for its
    neighbourhood traffic, while inter-cluster links use a weaker penalty
    (``alpha_inter``) so they act as the long-range shortcuts that give
    the topology its small-world character.
    """

    k_intra: float = 3.0
    k_inter: float = 1.0
    kmax: int = 7
    alpha_intra: float = 3.0
    alpha_inter: float = 1.8

    def __post_init__(self) -> None:
        check_positive("k_intra", self.k_intra)
        check_positive("k_inter", self.k_inter)
        check_positive("kmax", self.kmax)
        check_positive("alpha_intra", self.alpha_intra)
        check_positive("alpha_inter", self.alpha_inter)

    @property
    def alpha(self) -> float:
        """Backward-compatible average exponent (reporting only)."""
        return 0.5 * (self.alpha_intra + self.alpha_inter)

    @property
    def k_total(self) -> float:
        return self.k_intra + self.k_inter

    def sized_for(self, num_nodes: int, num_islands: int) -> "SmallWorldConfig":
        """Config sized for a die: the inter-island link budget
        (``num_nodes * k_inter / 2``) must cover every island pair, so a
        many-island die on a small mesh raises ``k_inter`` just enough to
        allocate at least one link per pair.  The paper's 64-core,
        4-island die (32 links for 6 pairs) returns ``self`` unchanged.
        """
        check_positive("num_nodes", num_nodes)
        check_positive("num_islands", num_islands)
        pairs = num_islands * (num_islands - 1) // 2
        if round(num_nodes * self.k_inter / 2.0) >= pairs:
            return self
        from dataclasses import replace

        return replace(self, k_inter=2.0 * pairs / num_nodes)


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

    intra_table = _wiring_table(geometry, config.alpha_intra)
    inter_table = _wiring_table(geometry, config.alpha_inter)
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
            weights = _wiring_weights(
                intra_table, geometry, node, np.array(connected)
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
        first, second = np.triu_indices(len(nodes), 1)
        _add_sampled_links(
            intra_table,
            geometry,
            np.array(nodes)[first],
            np.array(nodes)[second],
            target_links - (len(nodes) - 1),
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
        added = _add_sampled_links(
            inter_table,
            geometry,
            np.repeat(members[p], len(members[q])),
            np.tile(members[q], len(members[p])),
            quota,
            rng,
            try_add,
        )
        if added < quota:
            # Port caps can exhaust a pair; spill the remainder anywhere.
            first, second = np.triu_indices(geometry.num_nodes, 1)
            apart = np.asarray(clusters)[first] != np.asarray(clusters)[second]
            _add_sampled_links(
                inter_table,
                geometry,
                first[apart],
                second[apart],
                quota - added,
                rng,
                try_add,
            )

    topology = Topology(name=name, geometry=geometry, links=links)
    if not topology.is_connected():
        raise RuntimeError("small-world construction produced a disconnected network")
    return topology


def _wiring_table(geometry: GridGeometry, alpha: float) -> np.ndarray:
    """Power-law wiring weight ``d^-alpha`` of two switches ``|dx|``
    columns and ``|dy|`` rows apart, as ``table[|dx|, |dy|]``.

    Each entry is the scalar ``GridGeometry.distance_mm`` would give the
    pair raised to ``-alpha`` (``hypot`` ignores the offsets' signs), so
    a lookup has the bits of the per-pair computation."""
    return np.array([
        [
            max(math.hypot(dx, dy) * geometry.pitch_mm, 1e-9) ** -alpha
            for dy in range(geometry.rows)
        ]
        for dx in range(geometry.columns)
    ])


def _wiring_weights(
    table: np.ndarray, geometry: GridGeometry, a, b
) -> np.ndarray:
    """Wiring weights of the switch pairs ``(a[i], b[i])`` (broadcast)."""
    columns = geometry.columns
    a, b = np.asarray(a), np.asarray(b)
    return table[
        np.abs(a % columns - b % columns), np.abs(a // columns - b // columns)
    ]


def _weighted_order(
    items: Sequence[int], weights: np.ndarray, rng: np.random.Generator
) -> Iterator[int]:
    """Items in random order biased by weights (without replacement),
    picked on demand.

    The first pick draws the call's ``len(items)`` uniforms at once --
    the doubles and generator state of one ``rng.random()`` per pick --
    so the generator state does not depend on how many picks the caller
    takes, and the picks it does not take are never computed.  Each
    pick searches its uniform against the normalized cdf of the
    remaining weights, as ``rng.choice(len(items), p=p)`` does without
    its argument checks."""
    remaining = list(items)
    remaining_weights = np.array(weights, dtype=float)
    for uniform in rng.random(len(remaining)).tolist():
        probabilities = remaining_weights / remaining_weights.sum()
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        index = int(cdf.searchsorted(uniform, side="right"))
        yield remaining.pop(index)
        remaining_weights = np.delete(remaining_weights, index)


def _add_sampled_links(
    table: np.ndarray,
    geometry: GridGeometry,
    first: np.ndarray,
    second: np.ndarray,
    count: int,
    rng: np.random.Generator,
    try_add,
) -> int:
    """Sample *count* of the candidate links ``(first[i], second[i])``
    with power-law probability (weights from :func:`_wiring_table`)."""
    if count <= 0 or not len(first):
        return 0
    weights = _wiring_weights(table, geometry, first, second)
    added = 0
    for index in map(int, _sample_order(weights, rng)):
        if added >= count:
            break
        if try_add(int(first[index]), int(second[index])):
            added += 1
    return added


def _sample_order(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random permutation of indices biased by weights (Gumbel trick)."""
    gumbel = rng.gumbel(size=len(weights))
    return np.argsort(-(np.log(np.maximum(weights, 1e-300)) + gumbel))


def _inter_cluster_quotas(
    pair_list: List[Tuple[int, int]],
    cluster_ids: List[int],
    traffic: Optional[np.ndarray],
    total_links: int,
) -> Dict[Tuple[int, int], int]:
    """Largest-remainder allocation of inter-cluster links to cluster pairs.

    "The proportion of links allocated between two clusters is directly
    related to the proportion of inter-cluster traffic between the two
    clusters in total inter-cluster traffic" (paper Sec. 5).  Every pair
    gets at least one link so the cluster graph stays complete.
    """
    if total_links < len(pair_list):
        raise ValueError(
            f"{total_links} inter-cluster links cannot cover "
            f"{len(pair_list)} cluster pairs"
        )
    if traffic is None:
        shares = np.ones(len(pair_list))
    else:
        traffic = np.asarray(traffic, dtype=float)
        index_of = {cid: i for i, cid in enumerate(cluster_ids)}
        shares = np.array(
            [
                traffic[index_of[p], index_of[q]] + traffic[index_of[q], index_of[p]]
                for p, q in pair_list
            ]
        )
        if shares.sum() <= 0:
            shares = np.ones(len(pair_list))
    # Reserve one link per pair, distribute the rest proportionally.
    remaining = total_links - len(pair_list)
    raw = shares / shares.sum() * remaining
    base = np.floor(raw).astype(int)
    leftover = remaining - int(base.sum())
    order = np.argsort(-(raw - base))
    for index in order[:leftover]:
        base[index] += 1
    return {pair: 1 + int(base[i]) for i, pair in enumerate(pair_list)}
