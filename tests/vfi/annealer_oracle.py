"""Reference annealers: every move priced by a full re-evaluation.

``solve_simulated_annealing`` and ``communication_aware_mapping`` as
they were before they kept their arrays live across moves: each
clustering candidate is a fresh copy of the assignment priced by a
fresh :func:`full_cluster_cost` (one-hot, equal-size check and all),
and each mapping candidate re-gathers all n^2 worker distances in
:func:`full_mapping_cost`.  Kept verbatim as oracles:
``tests/vfi/test_annealer_oracle.py`` asserts the product annealers
return the same assignment, cost bits and evaluation count (clustering)
and the same mapping, and leave the generator in the same state.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.mapping.thread_mapping import (
    ThreadMapping,
    _grid_distance_matrix,
    _initial_cluster_mapping,
)
from repro.utils.rng import SeedLike, derive_rng
from repro.vfi.clustering import (
    ClusteringProblem,
    ClusteringResult,
    utilization_sorted_assignment,
)
from repro.vfi.islands import VfiLayout


def full_cluster_cost(
    problem: ClusteringProblem, assignment: Sequence[int]
) -> float:
    """Evaluate Eq. (1) for a complete assignment."""
    assignment = np.asarray(assignment, dtype=int)
    if len(assignment) != problem.num_cores:
        raise ValueError("assignment length mismatch")
    counts = np.bincount(assignment, minlength=problem.num_clusters)
    if not (counts == problem.cluster_size).all():
        raise ValueError(f"clusters must have equal size; got counts {counts}")
    m = problem.num_clusters
    one_hot = np.zeros((problem.num_cores, m))
    one_hot[np.arange(problem.num_cores), assignment] = 1.0
    cluster_flow = one_hot.T @ problem.traffic @ one_hot  # m x m
    phi = np.full((m, m), 1.0)
    np.fill_diagonal(phi, 1.0 / math.sqrt(m))
    comm = float((cluster_flow * phi).sum())
    util = float(
        (
            (problem.utilization - problem.cluster_target_util[assignment]) ** 2
        ).sum()
    )
    return problem.comm_weight * comm + problem.util_weight * util


def solve_simulated_annealing(
    problem: ClusteringProblem,
    iterations: int = 4000,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.9985,
    seed: SeedLike = None,
) -> ClusteringResult:
    """Swap-move annealing (preserves the equal-size constraint by
    construction).  Deterministic given *seed*."""
    rng = derive_rng(seed)
    assignment = np.array(utilization_sorted_assignment(problem), dtype=int)
    current_cost = full_cluster_cost(problem, assignment)
    best = assignment.copy()
    best_cost = current_cost
    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(0.05 * current_cost, 1e-9)
    )
    n = problem.num_cores
    evaluations = 0
    for _ in range(iterations):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if assignment[a] == assignment[b]:
            continue
        candidate = assignment.copy()
        candidate[a], candidate[b] = candidate[b], candidate[a]
        candidate_cost = full_cluster_cost(problem, candidate)
        evaluations += 1
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-15)):
            assignment, current_cost = candidate, candidate_cost
            if current_cost < best_cost:
                best, best_cost = assignment.copy(), current_cost
        temperature *= cooling
    return ClusteringResult(
        assignment=tuple(int(c) for c in best),
        cost=best_cost,
        method="simulated-annealing",
        evaluations=evaluations,
    )


def full_mapping_cost(
    mapping: Sequence[int], traffic: np.ndarray, distance: np.ndarray
) -> float:
    """Traffic-weighted total grid distance of a mapping."""
    nodes = np.asarray(mapping)
    return float((traffic * distance[np.ix_(nodes, nodes)]).sum())


def communication_aware_mapping(
    worker_clusters: Sequence[int],
    layout: VfiLayout,
    traffic: np.ndarray,
    iterations: int = 2000,
    seed: SeedLike = None,
) -> ThreadMapping:
    """SA mapping minimizing traffic-weighted distance within islands.

    Moves swap the nodes of two workers in the *same* cluster, so the
    cluster-to-island constraint holds by construction.
    """
    num_workers = len(worker_clusters)
    if traffic.shape != (num_workers, num_workers):
        raise ValueError("traffic shape does not match workers")
    rng = derive_rng(seed)
    distance = _grid_distance_matrix(layout.geometry)
    mapping = _initial_cluster_mapping(worker_clusters, layout)
    current_cost = full_mapping_cost(mapping, traffic, distance)
    best, best_cost = list(mapping), current_cost
    temperature = max(0.05 * current_cost, 1e-9)
    clusters = np.asarray(worker_clusters)
    for _ in range(iterations):
        a, b = int(rng.integers(num_workers)), int(rng.integers(num_workers))
        if a == b or clusters[a] != clusters[b]:
            continue
        mapping[a], mapping[b] = mapping[b], mapping[a]
        candidate_cost = full_mapping_cost(mapping, traffic, distance)
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-15)):
            current_cost = candidate_cost
            if current_cost < best_cost:
                best, best_cost = list(mapping), current_cost
        else:
            mapping[a], mapping[b] = mapping[b], mapping[a]  # revert
        temperature *= 0.998
    return ThreadMapping(tuple(best))
