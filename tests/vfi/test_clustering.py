"""Eq. (1) clustering: objective, exact solver, annealing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vfi.clustering import (
    ClusteringProblem,
    cluster_cost,
    solve,
    solve_branch_and_bound,
    solve_simulated_annealing,
    utilization_sorted_assignment,
)


def random_problem(n, m, seed):
    rng = np.random.default_rng(seed)
    traffic = rng.random((n, n))
    np.fill_diagonal(traffic, 0.0)
    utilization = rng.random(n)
    return ClusteringProblem(traffic, utilization, m)


def brute_force(problem):
    """Exhaustive minimum over all equal-size assignments."""
    n, m, size = problem.num_cores, problem.num_clusters, problem.cluster_size
    best_cost, best = np.inf, None
    for perm in itertools.permutations(range(n)):
        # canonical form to cut duplicates: require each cluster's members
        # sorted and clusters ordered by first member
        assignment = [0] * n
        for rank, core in enumerate(perm):
            assignment[core] = rank // size
        cost = cluster_cost(problem, assignment)
        if cost < best_cost:
            best_cost, best = cost, assignment
    return best_cost


class TestProblem:
    def test_normalizes_inputs(self):
        problem = random_problem(8, 2, 0)
        assert problem.traffic.max() == pytest.approx(1.0)
        assert problem.utilization.max() == pytest.approx(1.0)

    def test_quantile_targets_descending(self):
        problem = random_problem(8, 2, 0)
        targets = problem.cluster_target_util
        assert (np.diff(targets) <= 1e-12).all()

    def test_phi(self):
        problem = random_problem(8, 4, 0)
        assert problem.phi(0, 0) == pytest.approx(0.5)  # 1/sqrt(4)
        assert problem.phi(0, 1) == 1.0

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            random_problem(7, 2, 0)

    def test_rejects_negative_traffic(self):
        with pytest.raises(ValueError):
            ClusteringProblem(-np.ones((4, 4)), np.ones(4), 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ClusteringProblem(np.ones((4, 4)), np.ones(6), 2)


class TestCost:
    def test_rejects_uneven_assignment(self):
        problem = random_problem(4, 2, 1)
        with pytest.raises(ValueError):
            cluster_cost(problem, [0, 0, 0, 1])

    def test_intra_cheaper_than_inter(self):
        # Two chatty pairs: co-locating them must cost less.
        traffic = np.zeros((4, 4))
        traffic[0, 1] = traffic[2, 3] = 1.0
        problem = ClusteringProblem(traffic, np.full(4, 0.5), 2, util_weight=0.0)
        together = cluster_cost(problem, [0, 0, 1, 1])
        apart = cluster_cost(problem, [0, 1, 0, 1])
        assert together < apart

    def test_utilization_grouping_preferred(self):
        utilization = np.array([0.9, 0.9, 0.1, 0.1])
        problem = ClusteringProblem(np.zeros((4, 4)), utilization, 2, comm_weight=0.0)
        grouped = cluster_cost(problem, utilization_sorted_assignment(problem))
        mixed = cluster_cost(problem, [0, 1, 0, 1])
        assert grouped < mixed


class TestExactSolver:
    def test_matches_brute_force_small(self):
        problem = random_problem(6, 2, 3)
        result = solve_branch_and_bound(problem)
        assert result.cost == pytest.approx(brute_force(problem))

    def test_matches_brute_force_three_clusters(self):
        problem = random_problem(6, 3, 4)
        result = solve_branch_and_bound(problem)
        assert result.cost == pytest.approx(brute_force(problem))

    @pytest.mark.parametrize("seed", range(4))
    def test_cost_counts_self_traffic(self, seed):
        # A core's traffic to itself stays in its cluster: every
        # assignment pays phi_intra * f[i, i], and the reported cost
        # must include it.
        rng = np.random.default_rng(seed)
        problem = ClusteringProblem(rng.random((6, 6)), rng.random(6), 2)
        assert np.trace(problem.traffic) > 0.0
        result = solve_branch_and_bound(problem)
        assert result.cost == pytest.approx(
            cluster_cost(problem, result.assignment), rel=1e-12
        )
        assert result.cost == pytest.approx(brute_force(problem), rel=1e-12)

    def test_equal_sizes(self):
        problem = random_problem(12, 4, 5)
        result = solve_branch_and_bound(problem)
        counts = np.bincount(result.assignment, minlength=4)
        assert (counts == 3).all()

    def test_bound_prunes_a_dense_instance(self):
        # Drawn as the annealer benchmark draws its 12-core instances.
        # Bounding only the assigned pairs evaluates all 7,364 nodes of
        # this tree; the bound on the cores still to be assigned cuts
        # most of them and still finds the optimum.
        rng = np.random.default_rng(1)
        problem = ClusteringProblem(rng.random((8, 8)) ** 2, rng.random(8), 4)
        result = solve_branch_and_bound(problem)
        assert result.evaluations <= 1000
        assert result.cost == pytest.approx(brute_force(problem), rel=1e-12)

    def test_refuses_large_instances(self):
        problem = random_problem(64, 4, 6)
        with pytest.raises(ValueError):
            solve_branch_and_bound(problem)


class TestAnnealing:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reaches_exact_optimum_on_small_instances(self, seed):
        problem = random_problem(8, 2, seed)
        exact = solve_branch_and_bound(problem)
        annealed = solve_simulated_annealing(problem, iterations=4000, seed=seed)
        assert annealed.cost == pytest.approx(exact.cost, rel=1e-9)

    def test_never_worse_than_seed(self):
        problem = random_problem(64, 4, 7)
        seed_cost = cluster_cost(problem, utilization_sorted_assignment(problem))
        result = solve_simulated_annealing(problem, seed=7)
        assert result.cost <= seed_cost + 1e-12

    def test_deterministic(self):
        problem = random_problem(16, 4, 8)
        a = solve_simulated_annealing(problem, iterations=500, seed=3)
        b = solve_simulated_annealing(problem, iterations=500, seed=3)
        assert a.assignment == b.assignment

    def test_equal_size_invariant(self):
        problem = random_problem(64, 4, 9)
        result = solve_simulated_annealing(problem, iterations=1000, seed=1)
        counts = np.bincount(result.assignment, minlength=4)
        assert (counts == 16).all()


class TestDispatch:
    def test_small_uses_exact(self):
        result = solve(random_problem(8, 2, 10))
        assert result.method == "branch-and-bound"

    def test_large_uses_annealing(self):
        result = solve(random_problem(64, 4, 11), seed=0)
        assert result.method == "simulated-annealing"


class TestSeedAssignment:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_seed_is_quantile_optimal_for_util_only(self, seed):
        """The utilization-sorted seed minimizes the utilization term."""
        rng = np.random.default_rng(seed)
        problem = ClusteringProblem(
            np.zeros((8, 8)), rng.random(8), 2, comm_weight=0.0
        )
        seed_cost = cluster_cost(problem, utilization_sorted_assignment(problem))
        exact = solve_branch_and_bound(problem)
        assert seed_cost == pytest.approx(exact.cost, rel=1e-9)
