"""VFI clustering: the 0-1 quadratic program of Eq. (1).

Minimize, over assignment variables ``X[i, j]`` (core *i* in cluster *j*):

    w_c * sum_{i,j,p,q} X[i,j] X[p,q] f[i,p] phi(j, q)
  + w_u * sum_{i,j} X[i,j] (u[i] - ubar[j])^2

subject to every core in exactly one cluster and all ``m`` clusters of
equal size ``n/m``, where

    phi(j, q) = 1          if j != q   (inter-cluster traffic)
              = 1/sqrt(m)  if j == q   (intra-cluster traffic)

and ``ubar[j]`` is the mean of the *j*-th m-quantile of the sorted
utilization values (so clusters are implicitly ordered by utilization
level).  ``f`` and ``u`` are max-normalized and ``w_c = w_u = 1``
(paper Sec. 4.1).

The paper solves this NP-hard program with Gurobi's branch and bound.
Gurobi is unavailable here, so this module provides:

* :func:`solve_branch_and_bound` -- an exact depth-first branch and bound
  with a lower bound on the cores still to be assigned, practical up to
  ~16 cores (used to validate the heuristic);
* :func:`solve_simulated_annealing` -- swap-move annealing from the
  utilization-sorted seed, used for the 64-core instances.  It reaches
  the B&B optimum on the 8-core, 2-cluster instances of
  ``tests/vfi/test_clustering.py``; on ten dense 12-core, 4-cluster
  ones it reaches it on four and stays within 0.3 % of it on the rest
  (``benchmarks/test_annealer_quality.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import RawDraws, SeedLike, derive_rng


@dataclass
class ClusteringProblem:
    """Inputs of Eq. (1), normalized on construction."""

    traffic: np.ndarray  # f[i, p]: packets/unit-time from i to p
    utilization: np.ndarray  # u[i] in [0, 1]
    num_clusters: int
    comm_weight: float = 1.0
    util_weight: float = 1.0

    def __post_init__(self) -> None:
        self.traffic = np.asarray(self.traffic, dtype=float)
        self.utilization = np.asarray(self.utilization, dtype=float)
        n = len(self.utilization)
        if self.traffic.shape != (n, n):
            raise ValueError(
                f"traffic {self.traffic.shape} does not match {n} cores"
            )
        if n % self.num_clusters:
            raise ValueError(
                f"{n} cores do not divide into {self.num_clusters} equal clusters"
            )
        if (self.traffic < 0).any():
            raise ValueError("traffic must be non-negative")
        # Max-normalize f and u (paper Sec. 4.1).
        t_max = self.traffic.max()
        if t_max > 0:
            self.traffic = self.traffic / t_max
        u_max = self.utilization.max()
        if u_max > 0:
            self.utilization = self.utilization / u_max
        self.cluster_size = n // self.num_clusters
        # ubar[j]: mean of the j-th m-quantile of sorted utilizations.
        # Quantile 0 holds the *highest* utilizations so that cluster ids
        # order islands fast-to-slow (matching Table 2 presentation).
        sorted_u = np.sort(self.utilization)[::-1]
        self.cluster_target_util = np.array(
            [
                sorted_u[j * self.cluster_size : (j + 1) * self.cluster_size].mean()
                for j in range(self.num_clusters)
            ]
        )

    @property
    def num_cores(self) -> int:
        return len(self.utilization)

    def phi(self, j: int, q: int) -> float:
        """Normalized communication cost function, Eq. (2)."""
        if j == q:
            return 1.0 / math.sqrt(self.num_clusters)
        return 1.0


@dataclass
class ClusteringResult:
    assignment: Tuple[int, ...]  # cluster id per core
    cost: float
    method: str
    evaluations: int = 0

    def members(self, cluster: int) -> List[int]:
        return [i for i, c in enumerate(self.assignment) if c == cluster]


def cluster_cost(problem: ClusteringProblem, assignment: Sequence[int]) -> float:
    """Evaluate Eq. (1) for a complete assignment."""
    assignment = np.asarray(assignment, dtype=int)
    if len(assignment) != problem.num_cores:
        raise ValueError("assignment length mismatch")
    counts = np.bincount(assignment, minlength=problem.num_clusters)
    if not (counts == problem.cluster_size).all():
        raise ValueError(f"clusters must have equal size; got counts {counts}")
    one_hot, squared_deviation = _cost_terms(problem, assignment)
    return _priced(problem, one_hot, squared_deviation, _phi_matrix(problem))


def _cost_terms(
    problem: ClusteringProblem, assignment: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The n x m one-hot of *assignment* and each core's squared
    deviation from its cluster's target utilization."""
    one_hot = np.zeros((problem.num_cores, problem.num_clusters))
    one_hot[np.arange(problem.num_cores), assignment] = 1.0
    deviation = problem.utilization - problem.cluster_target_util[assignment]
    return one_hot, deviation ** 2


def _phi_matrix(problem: ClusteringProblem) -> np.ndarray:
    """Eq. (2) for every cluster pair."""
    m = problem.num_clusters
    phi = np.full((m, m), 1.0)
    np.fill_diagonal(phi, 1.0 / math.sqrt(m))
    return phi


def _priced(
    problem: ClusteringProblem,
    one_hot: np.ndarray,
    squared_deviation: np.ndarray,
    phi: np.ndarray,
) -> float:
    """Eq. (1) from an n x m one-hot and the per-core squared deviations.

    The one evaluation every caller shares, so a cost tracked by the
    annealer and a fresh :func:`cluster_cost` of the same assignment
    agree bit for bit.
    """
    cluster_flow = one_hot.T @ problem.traffic @ one_hot  # m x m
    comm = float((cluster_flow * phi).sum())
    util = float(squared_deviation.sum())
    return problem.comm_weight * comm + problem.util_weight * util


def utilization_sorted_assignment(problem: ClusteringProblem) -> Tuple[int, ...]:
    """Quantile seed: highest-utilization cores in cluster 0, and so on.

    This is the exact minimizer of the utilization half of the objective
    (by construction of ``ubar``), making it the natural SA start point.
    """
    order = np.argsort(-problem.utilization, kind="stable")
    assignment = np.empty(problem.num_cores, dtype=int)
    for rank, core in enumerate(order):
        assignment[core] = rank // problem.cluster_size
    return tuple(int(c) for c in assignment)


# ---------------------------------------------------------------------- #
# Exact branch and bound
# ---------------------------------------------------------------------- #


def solve_branch_and_bound(
    problem: ClusteringProblem,
    max_cores: int = 16,
) -> ClusteringResult:
    """Exact DFS branch and bound over the assignment tree.

    Cores are assigned in order; partial cost accumulates the utilization
    term exactly and the communication term over already-assigned pairs.
    It starts at the self-traffic term ``phi_intra * sum_i f[i, i]``,
    which every assignment pays, so the returned ``cost`` is the Eq. (1)
    cost of the returned assignment.  A subtree is pruned when its
    partial cost plus a precomputed lower bound on what the cores still
    to be assigned add reaches the incumbent (seeded from the
    utilization-sorted assignment).  Each such core adds at least its
    cheapest utilization term, plus its traffic with the earlier cores
    at ``phi = 1`` except for its ``cluster_size - 1`` heaviest pairs at
    ``phi_intra``: no more earlier cores than that can share its island.
    """
    n = problem.num_cores
    if n > max_cores:
        raise ValueError(
            f"branch and bound limited to {max_cores} cores (got {n}); "
            "use solve_simulated_annealing for larger instances"
        )
    m = problem.num_clusters
    size = problem.cluster_size
    sym_traffic = problem.traffic + problem.traffic.T
    phi_intra = 1.0 / math.sqrt(m)

    seed = list(utilization_sorted_assignment(problem))
    best_cost = cluster_cost(problem, seed)
    best_assignment = list(seed)
    counts = [0] * m
    assignment = [-1] * n
    evaluations = 0

    util = problem.utilization
    targets = problem.cluster_target_util
    # floor[k] bounds what cores k..n-1 add from below.  It is shrunk by
    # a relative 1e-9, so float rounding never prunes a leaf that beats
    # the incumbent; floor[n] = 0 keeps the leaf test exact.
    floor = [0.0] * (n + 1)
    remaining = 0.0
    for core in range(n - 1, -1, -1):
        pairs = np.sort(sym_traffic[core, :core])[::-1]
        comm = pairs.sum() - (1.0 - phi_intra) * pairs[: size - 1].sum()
        remaining += problem.util_weight * float(
            ((util[core] - targets) ** 2).min()
        ) + problem.comm_weight * float(comm)
        floor[core] = remaining * (1.0 - 1e-9)

    def dfs(core: int, partial_cost: float) -> None:
        nonlocal best_cost, best_assignment, evaluations
        if partial_cost + floor[core] >= best_cost:
            return
        if core == n:
            best_cost = partial_cost
            best_assignment = assignment.copy()
            return
        for cluster in range(m):
            if counts[cluster] == size:
                continue
            evaluations += 1
            increment = problem.util_weight * (util[core] - targets[cluster]) ** 2
            for earlier in range(core):
                weight = sym_traffic[core, earlier]
                if weight == 0.0:
                    continue
                phi = phi_intra if assignment[earlier] == cluster else 1.0
                increment += problem.comm_weight * weight * phi
            assignment[core] = cluster
            counts[cluster] += 1
            dfs(core + 1, partial_cost + increment)
            counts[cluster] -= 1
            assignment[core] = -1

    dfs(0, problem.comm_weight * phi_intra * float(np.trace(problem.traffic)))
    return ClusteringResult(
        assignment=tuple(best_assignment),
        cost=best_cost,
        method="branch-and-bound",
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------- #
# Simulated annealing
# ---------------------------------------------------------------------- #


def solve_simulated_annealing(
    problem: ClusteringProblem,
    iterations: int = 4000,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.9985,
    seed: SeedLike = None,
) -> ClusteringResult:
    """Swap-move annealing (preserves the equal-size constraint by
    construction).  Deterministic given *seed*.

    The one-hot and the per-core squared deviations live across moves:
    a swap flips four one-hot entries and two deviations, and a rejected
    swap puts them back.  Each candidate is still priced by the full
    Eq. (1) evaluation (:func:`_priced`), never by an O(n) delta whose
    reordered sums would move the cost bits.  The draws come from
    :class:`~repro.utils.rng.RawDraws` (the same values and final
    generator state as ``rng.integers`` / ``rng.random``), and the
    per-move bookkeeping is plain Python lists.
    """
    rng = derive_rng(seed)
    start = utilization_sorted_assignment(problem)
    current_cost = cluster_cost(problem, start)
    assignment = list(start)
    best = start
    best_cost = current_cost
    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(0.05 * current_cost, 1e-9)
    )
    n = problem.num_cores
    utilization = problem.utilization.tolist()
    targets = problem.cluster_target_util.tolist()
    one_hot, squared_deviation = _cost_terms(problem, np.array(start))
    phi = _phi_matrix(problem)

    def move(core: int, old: int, new: int) -> None:
        assignment[core] = new
        one_hot[core, old] = 0.0
        one_hot[core, new] = 1.0
        deviation = utilization[core] - targets[new]
        squared_deviation[core] = deviation * deviation

    evaluations = 0
    with RawDraws(rng) as draws:
        for _ in range(iterations):
            a, b = draws.below(n), draws.below(n)
            cluster_a, cluster_b = assignment[a], assignment[b]
            if cluster_a == cluster_b:
                continue
            move(a, cluster_a, cluster_b)
            move(b, cluster_b, cluster_a)
            candidate_cost = _priced(problem, one_hot, squared_deviation, phi)
            evaluations += 1
            delta = candidate_cost - current_cost
            if delta <= 0 or draws.uniform() < math.exp(
                -delta / max(temperature, 1e-15)
            ):
                current_cost = candidate_cost
                if current_cost < best_cost:
                    best, best_cost = tuple(assignment), current_cost
            else:
                move(a, cluster_b, cluster_a)
                move(b, cluster_a, cluster_b)
            temperature *= cooling
    repriced = cluster_cost(problem, best)
    if repriced != best_cost:
        raise RuntimeError(
            f"annealed clustering cost {best_cost!r} does not re-price "
            f"({repriced!r})"
        )
    return ClusteringResult(
        assignment=best,
        cost=best_cost,
        method="simulated-annealing",
        evaluations=evaluations,
    )


def solve(
    problem: ClusteringProblem,
    seed: SeedLike = None,
    exact_threshold: int = 12,
) -> ClusteringResult:
    """Dispatch: exact for small instances, annealing otherwise."""
    if problem.num_cores <= exact_threshold:
        return solve_branch_and_bound(problem)
    return solve_simulated_annealing(problem, seed=seed)


def export_lp(problem: ClusteringProblem, name: str = "vfi_clustering") -> str:
    """Serialize Eq. (1) as an LP-format 0-1 quadratic program.

    The paper solves the clustering with Gurobi; this exporter writes the
    exact instance (max-normalized f and u, equal-size constraints) in the
    LP file format Gurobi/CPLEX/SCIP read, so the built-in solvers can be
    cross-checked against a commercial branch-and-bound when one is
    available.  Variable ``x_i_j`` is 1 when core *i* joins cluster *j*.
    """
    n, m = problem.num_cores, problem.num_clusters
    lines = [f"\\ {name}: Eq. (1) VFI clustering, {n} cores, {m} clusters"]
    # Linear part: utilization term sum_ij X_ij (u_i - ubar_j)^2 (X^2 = X
    # for binaries, so it is linear).
    linear_terms = []
    for i in range(n):
        for j in range(m):
            coefficient = problem.util_weight * float(
                (problem.utilization[i] - problem.cluster_target_util[j]) ** 2
            )
            if coefficient != 0.0:
                linear_terms.append(f"{coefficient:+.9g} x_{i}_{j}")
    # Quadratic part: communication term.
    quadratic_terms = []
    for i in range(n):
        for p in range(n):
            weight = float(problem.traffic[i, p])
            if i == p or weight == 0.0:
                continue
            for j in range(m):
                for q in range(m):
                    coefficient = problem.comm_weight * weight * problem.phi(j, q)
                    quadratic_terms.append(
                        f"{2 * coefficient:+.9g} x_{i}_{j} * x_{p}_{q}"
                    )
    lines.append("Minimize")
    objective = " ".join(linear_terms) if linear_terms else "0 x_0_0"
    lines.append(f" obj: {objective}")
    if quadratic_terms:
        lines.append("  + [ " + " ".join(quadratic_terms) + " ] / 2")
    lines.append("Subject To")
    for i in range(n):
        terms = " + ".join(f"x_{i}_{j}" for j in range(m))
        lines.append(f" assign_{i}: {terms} = 1")
    size = problem.cluster_size
    for j in range(m):
        terms = " + ".join(f"x_{i}_{j}" for i in range(n))
        lines.append(f" size_{j}: {terms} = {size}")
    lines.append("Binary")
    for i in range(n):
        for j in range(m):
            lines.append(f" x_{i}_{j}")
    lines.append("End")
    return "\n".join(lines)
