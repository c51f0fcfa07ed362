"""Transfer energy per path, priced by the pairwise tables the simulator
folds transfers through (:class:`repro.noc.dense.PairwiseEnergy`)."""

import pytest

from repro.noc.dense import PairwiseEnergy
from repro.noc.energy import NocEnergyModel, NocEnergyParams
from repro.noc.network import FlowNetworkModel
from repro.noc.routing import build_routing_table
from repro.noc.topology import GridGeometry, Link, LinkKind, Topology

from tests.noc.energy_calls import fold_transfer


def wire(a, b, mm):
    return Link(a, b, LinkKind.WIRE, mm)


def wireless(a, b, channel=0):
    return Link(a, b, LinkKind.WIRELESS, 10.0, channel=channel)


def pairwise(links, params=NocEnergyParams()):
    """Pairwise energy tables of three switches joined by *links*."""
    topology = Topology("line", GridGeometry(3, 1), links)
    model = FlowNetworkModel(
        topology, build_routing_table(topology), [0, 0, 0], [2.5e9],
        energy_params=params,
    )
    return PairwiseEnergy(model)


class TestTransferEnergy:
    def test_wire_path(self):
        params = NocEnergyParams(
            router_pj_per_bit=1.0, wire_pj_per_bit_per_mm=2.0, wireless_pj_per_bit=5.0
        )
        table = pairwise([wire(0, 1, 2.5), wire(1, 2, 2.5)], params)
        energy = fold_transfer(table, 0, 1, 1000.0)
        # 2 routers (hop + ejection) + 2.5 mm of wire.
        assert energy == pytest.approx((2 * 1.0 + 2.0 * 2.5) * 1000 * 1e-12)

    def test_wireless_flat_cost(self):
        params = NocEnergyParams(
            router_pj_per_bit=1.0, wire_pj_per_bit_per_mm=2.0, wireless_pj_per_bit=5.0
        )
        table = pairwise([wireless(0, 1), wire(1, 2, 2.5)], params)
        energy = fold_transfer(table, 0, 1, 1000.0)
        assert energy == pytest.approx((2 * 1.0 + 5.0) * 1000 * 1e-12)

    def test_counters(self):
        table = pairwise([wire(0, 1, 2.5), wireless(1, 2)])
        fold_transfer(table, 0, 2, 100.0)
        counters = table.model.energy
        assert counters.bits_moved == 100.0
        assert counters.bit_hops / counters.bits_moved == 2.0
        # wireless_bits counts bits per wireless link traversed: all 100
        # bits crossed one wireless link.
        assert counters.wireless_bits / counters.bits_moved == pytest.approx(1.0)

    def test_default_crossover_favors_wireless_beyond_one_hop(self):
        # With the 65-nm defaults a single wireless transmission beats two
        # mesh hops of wire+router.
        wire_2hops = pairwise([wire(0, 1, 2.5), wire(1, 2, 2.5)])
        one_wireless = pairwise([wire(0, 1, 2.5), wireless(0, 2)])
        assert fold_transfer(one_wireless, 0, 2, 1.0) < fold_transfer(
            wire_2hops, 0, 2, 1.0
        )

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            fold_transfer(pairwise([wire(0, 1, 1.0), wire(1, 2, 1.0)]), 0, 1, -1.0)

    def test_static_energy(self):
        model = NocEnergyModel(NocEnergyParams(switch_leakage_w=2e-3))
        assert model.static_energy(10, 2.0) == pytest.approx(2e-3 * 10 * 2.0)
        assert model.static_energy(10, 2.0, voltage_scale=0.5) == pytest.approx(
            2e-3 * 10 * 2.0 * 0.25
        )
