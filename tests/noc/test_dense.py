"""The all-pairs tables agree with the per-packet path walk at every pair.

``tests/noc/path_oracle.py`` keeps the per-packet ``latency``,
``path_capacity`` and ``record_transfer`` the tables of
:mod:`repro.noc.dense` replaced.  Every check runs over all (src, dst)
pairs, ``src == dst`` included, on the three 64-core fabrics of
``tests/noc/test_table_oracles.py`` (XY mesh, small-world WiNoC with a
wire-preferring bulk routing, and that WiNoC with one wire and one
wireless link removed), clocked per island at four different
frequencies and loaded through ``add_flows``.  Under the same load,
the fabric-derived tables also equal, bit for bit, those of the one-walk
builders the fabric replaced (``tests/noc/table_oracles.py``), float64
and blocked float32 alike.
"""

import numpy as np
import pytest

from repro.noc.dense import DenseLatencyModel, PairwiseEnergy
from repro.noc.network import NocParams
from repro.telemetry import RecordingTracer, use_tracer

from tests.noc import table_oracles as oracle
from tests.noc.path_oracle import PathModel
from tests.noc.test_table_oracles import FABRICS

PAYLOADS = [64.0, 544.0, 2080.0]


def every_pair(n, value):
    """``value(src, dst)`` at every pair, as an (n, n) array."""
    return np.array([[value(src, dst) for dst in range(n)] for src in range(n)])


@pytest.fixture(scope="module")
def loaded():
    """Fabric name -> model carrying random flows on both classes."""
    rng = np.random.default_rng(0)
    models = {}
    for name, build in FABRICS.items():
        model = build()
        n = model.topology.num_nodes
        for bulk in (False, True):
            model.add_flows(
                rng.integers(n, size=200), rng.integers(n, size=200),
                rng.uniform(1e8, 5e9, size=200), bulk=bulk,
            )
        models[name] = model
    return models


def assert_latency_matches(models, bulk, payloads):
    for name, model in models.items():
        reference = PathModel(model)
        matrices = DenseLatencyModel(model, bulk).latency_matrices(payloads)
        for payload in payloads:
            np.testing.assert_allclose(
                matrices[payload],
                every_pair(
                    model.topology.num_nodes,
                    lambda src, dst: reference.latency(src, dst, payload, bulk=bulk),
                ),
                rtol=1e-9, err_msg=f"{name}, {payload} bits",
            )


def assert_energy_matches(bulk):
    """Every pair's energy increment, and the four counters once every
    pair is folded in row-major order, on a fresh model of each fabric
    (energy does not depend on load)."""
    for name, build in FABRICS.items():
        model = build()
        n = model.topology.num_nodes
        pairwise = PairwiseEnergy(model, bulk=bulk)
        reference = PathModel(model)
        bits = np.random.default_rng(2).uniform(1e3, 1e6, size=(n, n))
        src, dst = np.divmod(np.arange(n * n), n)
        increments = pairwise.increments(src, dst, bits.ravel())
        model.energy.fold(*increments)
        np.testing.assert_allclose(
            increments[0].reshape(n, n),
            every_pair(
                n,
                lambda src, dst: reference.record_transfer(
                    src, dst, bits[src, dst], bulk=bulk
                ),
            ),
            rtol=1e-12, err_msg=name,
        )
        for counter in ("dynamic_joules", "bits_moved", "bit_hops", "wireless_bits"):
            assert getattr(model.energy, counter) == pytest.approx(
                getattr(reference.energy, counter), rel=1e-12
            ), (name, counter)


class TestDenseAgreesWithReference:
    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_all_pairs_match(self, loaded, payload):
        assert_latency_matches(loaded, False, [payload])

    def test_unloaded_match_too(self):
        unloaded = {name: build() for name, build in FABRICS.items()}
        for bulk in (False, True):
            assert_latency_matches(unloaded, bulk, [544.0])


class TestPathCapacity:
    @pytest.mark.parametrize("bulk", [False, True])
    def test_every_pair_matches_reference(self, loaded, bulk):
        for name, model in loaded.items():
            n = model.topology.num_nodes
            dense = DenseLatencyModel(model, bulk)
            src, dst = np.divmod(np.arange(n * n), n)
            capacity = dense.pair_capacity(src, dst)(
                dense.inverse_capacity(dense.utilization())
            )
            reference = PathModel(model)
            np.testing.assert_allclose(
                capacity.reshape(n, n),
                every_pair(
                    n, lambda s, d: reference.path_capacity(s, d, bulk=bulk)
                ),
                rtol=1e-9, err_msg=name,
            )


class TestPairwiseEnergy:
    def test_record_matches_reference(self):
        assert_energy_matches(bulk=False)

    def test_rejects_negative_bits(self, loaded):
        pairwise = PairwiseEnergy(loaded["winoc"])
        with pytest.raises(ValueError):
            pairwise.increments(np.array([0, 2]), np.array([1, 3]), [1.0, -5.0])


class TestTracedCounters:
    def test_flit_counters_match_reference(self):
        """Counting every pair of both classes, in row-major order,
        feeds ``noc.link_flits`` and the per-medium flit counters
        exactly as the path walk does."""
        for name, build in FABRICS.items():
            with use_tracer(RecordingTracer()) as product:
                model = build()
            with use_tracer(RecordingTracer()) as oracle:
                reference = PathModel(build())
            n = model.topology.num_nodes
            bits = np.random.default_rng(3).uniform(1e3, 1e6, size=(n, n))
            src, dst = np.divmod(np.arange(n * n), n)
            for bulk in (False, True):
                pairwise = PairwiseEnergy(model, bulk=bulk)
                moved = pairwise.increments(src, dst, bits.ravel())[1]
                pairwise.count_flits(src, dst, moved)
                for s, d in zip(src.tolist(), dst.tolist()):
                    reference.record_transfer(s, d, bits[s, d], bulk=bulk)
            assert product.counters == oracle.counters, name
            assert product.counter_total("noc.link_flits") > 0


class TestUtilization:
    def test_capped(self, loaded):
        dense = DenseLatencyModel(loaded["winoc"])
        rho = dense.utilization()
        assert (rho <= loaded["winoc"].params.max_utilization + 1e-12).all()
        assert (rho >= 0).all()


class TestBulkClass:
    def test_bulk_dense_matches_reference(self, loaded):
        assert_latency_matches(loaded, True, PAYLOADS)

    def test_bulk_pairwise_energy_matches_reference(self):
        assert_energy_matches(bulk=True)


class TestFabricTablesEqualTheOneWalkBuilders:
    @pytest.mark.parametrize("block", [None, 16], ids=["f64", "b16"])
    @pytest.mark.parametrize("bulk", [False, True], ids=["latency", "bulk"])
    def test_loaded_latency_and_energy(self, block, bulk):
        rng = np.random.default_rng(4)
        for name, build in FABRICS.items():
            model = build(params=NocParams(dense_block_nodes=block))
            n = model.topology.num_nodes
            model.add_flows(
                rng.integers(n, size=200), rng.integers(n, size=200),
                rng.uniform(1e8, 5e9, size=200), bulk=bulk,
            )
            dense = DenseLatencyModel(model, bulk)
            static = oracle.one_walk_dense_static(model, bulk)
            queue = dense.queue_per_resource(dense.utilization())
            head = static["head"] + np.asarray(static["usage"] @ queue).reshape(n, n)
            assert np.array_equal(dense.loaded_head(queue), head), name
            raw = static["raw_bottleneck"]
            for payload in PAYLOADS:
                assert np.array_equal(
                    dense.latency(head, payload),
                    head + np.where(np.isinf(raw), 0.0, payload / raw),
                ), (name, payload)
            pairwise = PairwiseEnergy(model, bulk)
            tables = (pairwise.energy_per_bit, pairwise.hops, pairwise.wireless_links)
            for got, want in zip(tables, oracle.one_walk_pairwise(model, bulk)):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
