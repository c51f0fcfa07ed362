"""Per-phase views of fixed pairs equal the per-call forms they replaced.

A barrier phase registers the same (src, dst) entries and prices the
same pulls every relaxation round, so :class:`repro.noc.network.PairFlows`
and :class:`repro.noc.dense.PairCapacity` index the entries once and
then take one rate or load vector per round.  Each round's result must
equal, with ``np.array_equal``, the full mat-vec over every pair
(``add_flows_full``) and the per-call forms kept in
``tests/noc/table_oracles.py``: on the mesh and the WiNoC, for both
message classes, on the 64-core float64 layout and the 256-core
blocked float32 layout, with duplicate pairs, ``src == dst`` entries
and zero rates among the entries, for a sparse entry set and for one
covering every one of the ``n * n`` pairs.
"""

import numpy as np
import pytest

from repro.core.geometry import DieGeometry
from repro.noc.dense import DenseLatencyModel
from repro.noc.network import NocParams, PairFlows

from tests.noc import table_oracles as oracle
from tests.noc.test_table_oracles import mesh_model, winoc_model

LAYOUTS = {
    "64-f64": (DieGeometry.paper(), NocParams()),
    "256-b64": (DieGeometry.for_cores(256), NocParams(dense_block_nodes=64)),
}
BUILDERS = {"mesh": mesh_model, "winoc": winoc_model}


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def layout(request):
    return request.param


@pytest.fixture(scope="module")
def models(layout):
    die, params = LAYOUTS[layout]
    return {name: build(die=die, params=params) for name, build in BUILDERS.items()}


def entry_sets(n, rng):
    """A sparse entry set and an all-to-all one, each with duplicate
    pairs and ``src == dst`` entries."""
    src = rng.integers(n, size=3 * n)
    dst = rng.integers(n, size=3 * n)
    src[:n // 4] = dst[:n // 4]  # src == dst
    src[-8:], dst[-8:] = src[:8], dst[:8]  # duplicates
    sparse = (src, dst)
    every = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    dense = (np.concatenate([every[0], every[0][:50]]),
             np.concatenate([every[1], every[1][:50]]))
    return {"sparse": sparse, "all-to-all": dense}


def rate_rounds(size, rng, rounds=3):
    """Successive rate vectors: zero rates in each, one all-zero round."""
    out = []
    for k in range(rounds):
        rate = rng.uniform(1e6, 4e9, size=size)
        rate[rng.random(size) < 0.2] = 0.0
        out.append(rate)
    out.append(np.zeros(size))
    return out


@pytest.mark.parametrize("fabric", sorted(BUILDERS))
@pytest.mark.parametrize("bulk", [False, True], ids=["latency", "bulk"])
def test_flow_view_equals_the_full_mat_vec(models, layout, fabric, bulk):
    model = models[fabric]
    n = model.topology.num_nodes
    rng = np.random.default_rng(11)
    for entries, (src, dst) in entry_sets(n, rng).items():
        view = PairFlows(model, src, dst, bulk)
        assert view._usage_t.dtype == model.fabric.dtype
        for rate in rate_rounds(len(src), rng):
            got = view.resource_load(rate)
            assert np.array_equal(
                got, oracle.add_flows_full(model, src, dst, rate, bulk)
            ), (layout, fabric, entries)
            assert np.array_equal(
                got, oracle.add_flows_rows(model, src, dst, rate, bulk)
            ), (layout, fabric, entries)


@pytest.mark.parametrize("fabric", sorted(BUILDERS))
def test_registered_loads_equal_per_call_registration(models, fabric):
    """A view registered round after round leaves the network loads a
    per-call ``add_flows`` of each round would."""
    model = models[fabric]
    n = model.topology.num_nodes
    rng = np.random.default_rng(5)
    src, dst = entry_sets(n, rng)["sparse"]
    view = PairFlows(model, src, dst, True)
    for rate in rate_rounds(len(src), rng):
        model.reset_flows()
        view.register(rate)
        loads = model.load.link_load.copy(), model.load.channel_load.copy()
        model.reset_flows()
        model.apply_resource_load(oracle.add_flows_rows(model, src, dst, rate, True))
        assert np.array_equal(loads[0], model.load.link_load)
        assert np.array_equal(loads[1], model.load.channel_load)
    model.reset_flows()


@pytest.mark.parametrize("fabric", sorted(BUILDERS))
def test_capacity_view_equals_the_per_call_gather(models, layout, fabric):
    model = models[fabric]
    n = model.topology.num_nodes
    rng = np.random.default_rng(7)
    dense = DenseLatencyModel(model, bulk=True)
    src, dst = entry_sets(n, rng)["sparse"]
    gather = dense.pair_capacity(src, dst)
    for rate in rate_rounds(len(src), rng):
        model.reset_flows()
        model.add_flows(src, dst, rate, bulk=True)
        inverse = dense.inverse_capacity(dense.utilization())
        got = gather(inverse)
        assert np.array_equal(
            got, oracle.path_capacity_rows(dense, inverse, src, dst)
        ), (layout, fabric)
        assert np.isinf(got[src == dst]).all()
    model.reset_flows()
    assert dense.pair_capacity(src[:0], dst[:0])(inverse).shape == (0,)


@pytest.mark.parametrize("fabric", sorted(BUILDERS))
@pytest.mark.parametrize("bulk", [False, True], ids=["latency", "bulk"])
def test_kept_serialization_equals_the_recomputed_one(models, fabric, bulk):
    model = models[fabric]
    dense = DenseLatencyModel(model, bulk)
    rng = np.random.default_rng(3)
    n = model.topology.num_nodes
    for rate in rate_rounds(4 * n, rng):
        model.reset_flows()
        model.add_flows(rng.integers(n, size=4 * n), rng.integers(n, size=4 * n),
                        rate, bulk=bulk)
        head = dense.loaded_head(dense.queue_per_resource(dense.utilization()))
        for payload in (64.0, 544.0, 2080.0):
            got = dense.latency(head, payload)
            want = oracle.latency_uncached(dense, head, payload)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    model.reset_flows()


def test_flow_view_validates_its_entries():
    model = mesh_model()
    with pytest.raises(ValueError):
        PairFlows(model, [0, 1], [2])
    with pytest.raises(ValueError):
        PairFlows(model, [0], [64])
    view = PairFlows(model, [0], [2])
    with pytest.raises(ValueError):
        view.register([-1.0])
    with pytest.raises(ValueError):
        view.register([1.0, 2.0])
