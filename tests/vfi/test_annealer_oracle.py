"""The Eq. (1) clustering and thread-mapping annealers against their
full-recompute oracles (``tests/vfi/annealer_oracle.py``).

The product annealers keep their arrays live across moves; the oracles
rebuild everything on every move.  Both must take the same walk: the
same returned assignment, cost bits and evaluation count (clustering),
the same mapping, and the same generator state afterwards, on the six
apps' real 16-, 64- and 256-core problems and on drawn instances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.figures import ALL_APPS
from repro.apps.registry import create_app
from repro.core.platforms import build_nvfi_mesh, die_for
from repro.core.traffic import total_node_traffic
from repro.mapping import thread_mapping
from repro.mapping.thread_mapping import communication_aware_mapping
from repro.noc.topology import GridGeometry
from repro.sim.system import simulate
from repro.utils.rng import spawn_seed
from repro.vfi import clustering
from repro.vfi.clustering import ClusteringProblem, solve_simulated_annealing
from repro.vfi.islands import VfiLayout

from tests.vfi import annealer_oracle as oracle

SEED = 7
SCALE = 0.05


def real_inputs(app_name, num_workers):
    """The design flow's inputs as ``run_app_study`` builds them."""
    app = create_app(app_name, scale=SCALE, seed=SEED)
    locality = app.profile.l2_locality
    trace = app.run(num_workers=num_workers)
    geometry = die_for(num_workers)
    nvfi = simulate(build_nvfi_mesh(geometry), trace, locality=locality)
    traffic = np.asarray(total_node_traffic(trace, locality), dtype=float)
    utilization = np.asarray(nvfi.utilization, dtype=float)
    return geometry, utilization, traffic


def assert_same_clustering(problem, **kwargs):
    seed = kwargs.pop("seed")
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = solve_simulated_annealing(problem, seed=rng, **kwargs)
    expected = oracle.solve_simulated_annealing(
        problem, seed=oracle_rng, **kwargs
    )
    assert result.assignment == expected.assignment
    assert result.cost.hex() == expected.cost.hex()
    assert result.evaluations == expected.evaluations
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return result


def assert_same_mapping(worker_clusters, layout, traffic, **kwargs):
    seed = kwargs.pop("seed")
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = communication_aware_mapping(
        worker_clusters, layout, traffic, seed=rng, **kwargs
    )
    expected = oracle.communication_aware_mapping(
        worker_clusters, layout, traffic, seed=oracle_rng, **kwargs
    )
    assert result.worker_to_node == expected.worker_to_node
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("num_workers", [16, 64, 256])
@pytest.mark.parametrize("app_name", ALL_APPS)
def test_real_problems_match_oracle(app_name, num_workers):
    geometry, utilization, traffic = real_inputs(app_name, num_workers)
    problem = ClusteringProblem(
        traffic=traffic,
        utilization=utilization,
        num_clusters=geometry.num_islands,
    )
    result = assert_same_clustering(
        problem, seed=spawn_seed(SEED, app_name, "clustering")
    )
    assert_same_mapping(
        result.assignment,
        geometry.layout(),
        traffic,
        seed=spawn_seed(SEED, app_name, "mapping"),
    )


@st.composite
def instances(draw):
    """n in 8..256 cores in m in {2, 4, 8, 16} equal clusters; zero,
    sparse or dense traffic; distinct or tied utilizations."""
    m = draw(st.sampled_from((2, 4, 8, 16)))
    n = m * draw(st.integers(max(1, -(-8 // m)), 256 // m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("zero", "sparse", "dense")))
    if kind == "zero":
        traffic = np.zeros((n, n))
    elif kind == "sparse":
        traffic = rng.random((n, n)) * (rng.random((n, n)) < 0.05)
    else:
        traffic = rng.random((n, n)) ** 2
    if draw(st.booleans()):
        utilization = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
    else:
        utilization = rng.random(n)
    return m, traffic, utilization, rng


ITERATIONS = st.sampled_from((0, 1, 2, 50, 400))


@settings(max_examples=60, deadline=None)
@given(
    instance=instances(),
    iterations=ITERATIONS,
    initial_temperature=st.one_of(
        st.none(), st.sampled_from((0.0, 1e-9)), st.floats(1e-6, 10.0)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_clustering_matches_oracle(
    instance, iterations, initial_temperature, seed
):
    m, traffic, utilization, _ = instance
    problem = ClusteringProblem(traffic, utilization, m)
    assert_same_clustering(
        problem,
        iterations=iterations,
        initial_temperature=initial_temperature,
        seed=seed,
    )


@settings(max_examples=60, deadline=None)
@given(
    instance=instances(),
    iterations=ITERATIONS,
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_mapping_matches_oracle(instance, iterations, seed):
    m, traffic, _, rng = instance
    n = len(traffic)
    # Island j is an arbitrary set of n/m nodes on an m x n/m grid.
    layout = VfiLayout(
        GridGeometry(m, n // m),
        tuple(int(c) for c in rng.permutation(np.repeat(np.arange(m), n // m))),
    )
    worker_clusters = rng.permutation(np.repeat(np.arange(m), n // m))
    assert_same_mapping(
        worker_clusters, layout, traffic, iterations=iterations, seed=seed
    )


def test_cluster_cost_matches_oracle_bits():
    rng = np.random.default_rng(5)
    for n, m in ((8, 2), (64, 4), (256, 16)):
        traffic = rng.random((n, n))
        problem = ClusteringProblem(traffic, rng.random(n), m)
        for _ in range(5):
            assignment = rng.permutation(np.repeat(np.arange(m), n // m))
            assert clustering.cluster_cost(problem, assignment).hex() == (
                oracle.full_cluster_cost(problem, assignment).hex()
            )


def _counting(monkeypatch, module, name, counts, drift_after=None):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        cost = original(*args, **kwargs)
        if drift_after is not None and counts[name] > drift_after:
            cost = math.nextafter(cost, math.inf)
        return cost

    monkeypatch.setattr(module, name, counted)


def _solve_both(iterations):
    rng = np.random.default_rng(11)
    geometry = GridGeometry(8, 8)
    traffic = rng.random((64, 64))
    problem = ClusteringProblem(traffic, rng.random(64), 4)
    result = solve_simulated_annealing(problem, iterations=iterations, seed=3)
    communication_aware_mapping(
        result.assignment,
        VfiLayout(geometry, tuple(n % 4 for n in range(64))),
        traffic,
        iterations=iterations,
        seed=3,
    )
    return result


def test_cost_functions_run_a_constant_number_of_times_per_solve(monkeypatch):
    # Moves are priced on the live arrays: the full-evaluation helpers
    # run only to price the start and to re-price the result, so their
    # call count does not grow with the number of moves on any host.
    counts = {}
    _counting(monkeypatch, clustering, "cluster_cost", counts)
    _counting(monkeypatch, thread_mapping, "mapping_cost", counts)
    per_solve = {}
    for iterations in (0, 10, 1000):
        counts.clear()
        result = _solve_both(iterations)
        per_solve[iterations] = dict(counts)
    assert result.evaluations > 500
    assert per_solve[0] == per_solve[10] == per_solve[1000]
    assert set(per_solve[0]) == {"cluster_cost", "mapping_cost"}


@pytest.mark.parametrize(
    "module, name",
    [(clustering, "cluster_cost"), (thread_mapping, "mapping_cost")],
)
def test_result_that_does_not_reprice_is_refused(monkeypatch, module, name):
    # Let the full evaluation drift by one ulp after pricing the start:
    # the cost tracked across moves then disagrees with the re-priced
    # result, and the annealer raises instead of returning it.
    _counting(monkeypatch, module, name, {}, drift_after=1)
    with pytest.raises(RuntimeError, match="does not re-price"):
        _solve_both(200)
