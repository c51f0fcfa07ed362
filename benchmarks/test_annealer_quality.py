"""Annealer quality: how close the Eq. (1) clustering and the thread
mapping annealers get to a local and to the exact optimum.

Measures only; neither annealer changes.  Both start hot (T0 = 0.05 x
the start cost), so ROADMAP item 2 asks whether they anneal at all or
walk and keep the best state they visit.  Inputs are the six apps'
64-core seed-7 problems at the bench's scale (0.05), built as
``run_app_study`` builds them, and ten drawn 12-core, 4-cluster
instances small enough for the exact branch and bound.  Reported:

* clustering: the acceptance rate (accepted / evaluated swaps), counted
  by a replay of the reference loop of ``tests/vfi/annealer_oracle.py``
  that must land on the product annealer's exact result; and the Eq. (1)
  cost of the utilization-sorted start, of the annealed result and of a
  steepest descent from that result (the best improving swap per sweep,
  until none is left);
* mapping: the same for the traffic-weighted distance of the
  communication-aware mapping (start = island nodes in index order);
* drawn instances: the annealed Eq. (1) cost against the
  :func:`solve_branch_and_bound` optimum, and the number of tree nodes
  the exact solver evaluated.  Each count must stay below the whole
  tree's, so a lower bound that stops pruning fails here.

Writes ``results/annealer_quality.json``; EXPERIMENTS.md carries the
table.  Run with ``PYTHONPATH=src python -m pytest -q
benchmarks/test_annealer_quality.py``.
"""

import json
import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from conftest import write_result
from repro.analysis.figures import ALL_APPS
from repro.apps.registry import create_app
from repro.core.platforms import build_nvfi_mesh, die_for
from repro.core.traffic import total_node_traffic
from repro.mapping.thread_mapping import (
    _grid_distance_matrix,
    _initial_cluster_mapping,
    communication_aware_mapping,
    mapping_cost,
)
from repro.sim.system import simulate
from repro.utils.rng import spawn_seed
from repro.vfi.clustering import (
    ClusteringProblem,
    cluster_cost,
    solve_branch_and_bound,
    solve_simulated_annealing,
    utilization_sorted_assignment,
)

from tests.vfi.annealer_oracle import full_cluster_cost, full_mapping_cost

SEED = 7
SCALE = 0.05
NUM_WORKERS = 64
DRAWN_INSTANCES = 10
DRAWN_CORES = 12
DRAWN_CLUSTERS = 4
RESULT_NAME = "annealer_quality.json"


def _tree_nodes(cores, clusters):
    """Nodes of the whole equal-size assignment tree: every prefix of an
    assignment that puts at most ``cores / clusters`` cores in each
    cluster (1,107,696 for 12 cores in 4 clusters)."""
    size = cores // clusters

    @lru_cache(maxsize=None)
    def below(counts):
        total = 0
        for cluster, count in enumerate(counts):
            if count < size:
                child = counts[:cluster] + (count + 1,) + counts[cluster + 1:]
                total += 1 + below(tuple(sorted(child)))
        return total

    return below((0,) * clusters)


def _app_problem(app_name):
    """Clustering problem, layout and traffic as ``run_app_study``
    builds them from the clean NVFI run."""
    app = create_app(app_name, scale=SCALE, seed=SEED)
    locality = app.profile.l2_locality
    trace = app.run(num_workers=NUM_WORKERS)
    geometry = die_for(NUM_WORKERS)
    nvfi = simulate(build_nvfi_mesh(geometry), trace, locality=locality)
    traffic = np.asarray(total_node_traffic(trace, locality), dtype=float)
    problem = ClusteringProblem(
        traffic=traffic,
        utilization=np.asarray(nvfi.utilization, dtype=float),
        num_clusters=geometry.num_islands,
    )
    return problem, geometry.layout(), traffic


def _accept(delta, temperature, rng):
    return delta <= 0 or rng.random() < math.exp(
        -delta / max(temperature, 1e-15)
    )


def _replay_clustering(problem, seed, iterations=4000, cooling=0.9985):
    """The reference clustering loop, counting accepted swaps."""
    rng = np.random.default_rng(seed)
    assignment = np.array(utilization_sorted_assignment(problem), dtype=int)
    current_cost = full_cluster_cost(problem, assignment)
    best, best_cost = assignment.copy(), current_cost
    temperature = max(0.05 * current_cost, 1e-9)
    n = problem.num_cores
    evaluated = accepted = 0
    for _ in range(iterations):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if assignment[a] == assignment[b]:
            continue
        candidate = assignment.copy()
        candidate[a], candidate[b] = candidate[b], candidate[a]
        candidate_cost = full_cluster_cost(problem, candidate)
        evaluated += 1
        if _accept(candidate_cost - current_cost, temperature, rng):
            accepted += 1
            assignment, current_cost = candidate, candidate_cost
            if current_cost < best_cost:
                best, best_cost = assignment.copy(), current_cost
        temperature *= cooling
    return tuple(int(c) for c in best), best_cost, evaluated, accepted


def _replay_mapping(worker_clusters, layout, traffic, seed, iterations=2000):
    """The reference mapping loop, counting accepted swaps."""
    rng = np.random.default_rng(seed)
    distance = _grid_distance_matrix(layout.geometry)
    mapping = _initial_cluster_mapping(worker_clusters, layout)
    current_cost = full_mapping_cost(mapping, traffic, distance)
    best, best_cost = list(mapping), current_cost
    temperature = max(0.05 * current_cost, 1e-9)
    n = len(worker_clusters)
    evaluated = accepted = 0
    for _ in range(iterations):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b or worker_clusters[a] != worker_clusters[b]:
            continue
        mapping[a], mapping[b] = mapping[b], mapping[a]
        candidate_cost = full_mapping_cost(mapping, traffic, distance)
        evaluated += 1
        if _accept(candidate_cost - current_cost, temperature, rng):
            accepted += 1
            current_cost = candidate_cost
            if current_cost < best_cost:
                best, best_cost = list(mapping), current_cost
        else:
            mapping[a], mapping[b] = mapping[b], mapping[a]
        temperature *= 0.998
    return tuple(best), evaluated, accepted


def _descend(cost_of, state, pairs):
    """Steepest descent over swaps of *pairs*: apply the best improving
    swap of each sweep until no swap improves.  Returns the final cost
    and the number of swaps applied."""
    state = list(state)
    cost = cost_of(state)
    steps = 0
    while True:
        best_cost, best_pair = cost, None
        for a, b in pairs:
            state[a], state[b] = state[b], state[a]
            candidate = cost_of(state)
            state[a], state[b] = state[b], state[a]
            if candidate < best_cost:
                best_cost, best_pair = candidate, (a, b)
        if best_pair is None:
            return cost, steps
        a, b = best_pair
        state[a], state[b] = state[b], state[a]
        cost, steps = best_cost, steps + 1


def _improvement(before, after):
    return (before - after) / before if before else 0.0


def _app_row(app_name):
    problem, layout, traffic = _app_problem(app_name)
    clustering_seed = spawn_seed(SEED, app_name, "clustering")
    annealed = solve_simulated_annealing(problem, seed=clustering_seed)
    replayed, replayed_cost, evaluated, accepted = _replay_clustering(
        problem, clustering_seed
    )
    assert replayed == annealed.assignment
    assert replayed_cost.hex() == annealed.cost.hex()
    assert evaluated == annealed.evaluations
    clusters = annealed.assignment
    start = utilization_sorted_assignment(problem)
    # Every pair: which cores sit apart changes as the descent swaps
    # (a swap within one cluster prices the same and never wins).
    descended, descent_steps = _descend(
        lambda state: cluster_cost(problem, state),
        clusters,
        list(combinations(range(len(clusters)), 2)),
    )

    mapping_seed = spawn_seed(SEED, app_name, "mapping")
    mapped = communication_aware_mapping(
        clusters, layout, traffic, seed=mapping_seed
    )
    replayed_mapping, map_evaluated, map_accepted = _replay_mapping(
        list(clusters), layout, traffic, mapping_seed
    )
    assert replayed_mapping == mapped.worker_to_node
    distance = _grid_distance_matrix(layout.geometry)
    initial = _initial_cluster_mapping(clusters, layout)
    together = [(a, b) for a, b in combinations(range(len(clusters)), 2)
                if clusters[a] == clusters[b]]
    map_descended, map_steps = _descend(
        lambda state: mapping_cost(state, traffic, distance),
        mapped.worker_to_node,
        together,
    )
    map_start = mapping_cost(initial, traffic, distance)
    map_annealed = mapping_cost(mapped.worker_to_node, traffic, distance)
    start_cost = cluster_cost(problem, start)
    return {
        "clustering": {
            "evaluated": evaluated,
            "accepted": accepted,
            "acceptance_rate": accepted / evaluated if evaluated else 0.0,
            "start_cost": start_cost,
            "annealed_cost": annealed.cost,
            "descent_cost": descended,
            "descent_steps": descent_steps,
            "annealed_is_start": annealed.assignment == start,
            "annealed_gain": _improvement(start_cost, annealed.cost),
            "descent_gain_over_annealed": _improvement(annealed.cost, descended),
        },
        "mapping": {
            "evaluated": map_evaluated,
            "accepted": map_accepted,
            "acceptance_rate": (
                map_accepted / map_evaluated if map_evaluated else 0.0
            ),
            "start_cost": map_start,
            "annealed_cost": map_annealed,
            "descent_cost": map_descended,
            "descent_steps": map_steps,
            "annealed_gain": _improvement(map_start, map_annealed),
            "descent_gain_over_annealed": _improvement(
                map_annealed, map_descended
            ),
        },
    }


def _drawn_row(index):
    """A dense 12-core, 4-cluster instance: SA against the exact optimum."""
    rng = np.random.default_rng(spawn_seed(SEED, "annealer-quality", str(index)))
    problem = ClusteringProblem(
        rng.random((DRAWN_CORES, DRAWN_CORES)) ** 2,
        rng.random(DRAWN_CORES),
        DRAWN_CLUSTERS,
    )
    annealed = solve_simulated_annealing(problem, seed=index)
    exact = solve_branch_and_bound(problem)
    return {
        "instance": index,
        "start_cost": cluster_cost(problem, utilization_sorted_assignment(problem)),
        "annealed_cost": annealed.cost,
        "optimal_cost": exact.cost,
        "evaluations": exact.evaluations,
        "annealed_gap": (annealed.cost - exact.cost) / exact.cost,
        "annealed_is_optimal": math.isclose(
            annealed.cost, exact.cost, rel_tol=1e-12
        ),
    }


def test_annealer_quality(results_dir):
    apps = {app_name: _app_row(app_name) for app_name in ALL_APPS}
    drawn = [_drawn_row(index) for index in range(DRAWN_INSTANCES)]
    for row in apps.values():
        for stage in ("clustering", "mapping"):
            costs = row[stage]
            assert costs["descent_cost"] <= costs["annealed_cost"]
            assert costs["annealed_cost"] <= costs["start_cost"]
    whole_tree = _tree_nodes(DRAWN_CORES, DRAWN_CLUSTERS)
    for row in drawn:
        assert row["optimal_cost"] <= row["annealed_cost"] * (1 + 1e-12)
        assert row["evaluations"] < whole_tree
    payload = {
        "inputs": {
            "apps": list(ALL_APPS),
            "num_workers": NUM_WORKERS,
            "scale": SCALE,
            "seed": SEED,
            "drawn_instances": DRAWN_INSTANCES,
            "drawn_shape": (
                f"{DRAWN_CORES} cores, {DRAWN_CLUSTERS} clusters, "
                "traffic U(0,1)^2"
            ),
            "drawn_tree_nodes": whole_tree,
        },
        "apps": apps,
        "drawn": drawn,
        "drawn_summary": {
            "optimal": sum(row["annealed_is_optimal"] for row in drawn),
            "median_gap": float(np.median([row["annealed_gap"] for row in drawn])),
            "max_gap": max(row["annealed_gap"] for row in drawn),
        },
    }
    write_result(results_dir, RESULT_NAME, json.dumps(payload, indent=2))
