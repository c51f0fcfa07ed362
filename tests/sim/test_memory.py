"""Memory-system model: bank distribution, latency, energy expectations."""

import numpy as np
import pytest

from repro.core.platforms import build_nvfi_mesh
from repro.sim.memory import MemorySystem

from tests.noc.energy_calls import fold_miss
from tests.sim import kv_oracle


@pytest.fixture(scope="module")
def memory_uniform():
    return MemorySystem(build_nvfi_mesh(), locality=0.0)


@pytest.fixture(scope="module")
def memory_local():
    return MemorySystem(build_nvfi_mesh(), locality=0.8)


class TestBankDistribution:
    def test_rows_sum_to_one(self, memory_local):
        assert np.allclose(memory_local.bank_prob.sum(axis=1), 1.0)

    def test_uniform_when_no_locality(self, memory_uniform):
        assert np.allclose(memory_uniform.bank_prob, 1.0 / 64)

    def test_locality_prefers_nearby_banks(self, memory_local):
        geo = memory_local.platform.layout.geometry
        p = memory_local.bank_prob
        # own bank beats a distant bank for every source
        for src in (0, 27, 63):
            far = max(range(64), key=lambda b: geo.manhattan_hops(src, b))
            assert p[src, src] > 5 * p[src, far]

    def test_locality_validated(self):
        with pytest.raises(ValueError):
            MemorySystem(build_nvfi_mesh(), locality=1.2)


class TestLatency:
    def test_round_trip_positive(self, memory_uniform):
        for node in range(0, 64, 9):
            assert kv_oracle.l2_round_trip_s(memory_uniform, node) > 0

    def test_local_traffic_is_faster(self, memory_uniform, memory_local):
        assert (
            memory_local._l2_round_trip.mean()
            < memory_uniform._l2_round_trip.mean()
        )

    def test_memory_extra_includes_dram(self, memory_uniform):
        dram = memory_uniform.platform.memory_params.dram_latency_s
        for node in range(0, 64, 13):
            assert kv_oracle.memory_extra_s(memory_uniform, node) >= dram

    def test_stall_scales_with_accesses(self, memory_uniform):
        one = kv_oracle.task_stall_s(memory_uniform, 0, 100, 10, mlp=4)
        two = kv_oracle.task_stall_s(memory_uniform, 0, 200, 20, mlp=4)
        assert two == pytest.approx(2 * one)

    def test_mlp_divides_stall(self, memory_uniform):
        stall = kv_oracle.task_stall_s
        assert stall(memory_uniform, 0, 100, 0, mlp=4) == pytest.approx(
            stall(memory_uniform, 0, 100, 0, mlp=2) / 2
        )

    def test_bad_mlp_rejected(self, memory_uniform):
        with pytest.raises(ValueError):
            kv_oracle.task_stall_s(memory_uniform, 0, 1, 0, mlp=0)

    def test_load_raises_latency(self):
        memory = MemorySystem(build_nvfi_mesh(), locality=0.0)
        before = memory._l2_round_trip.mean()
        for node in range(64):
            kv_oracle.add_miss_flows(memory, node, 2e8)
        memory.refresh_latencies()
        assert memory._l2_round_trip.mean() > before


class TestEnergy:
    def test_miss_energy_positive_and_linear(self, memory_uniform):
        e1 = fold_miss(memory_uniform, 0, 1000, 100)
        e2 = fold_miss(memory_uniform, 0, 2000, 200)
        assert e2 == pytest.approx(2 * e1)

    def test_counters_accumulate(self):
        memory = MemorySystem(build_nvfi_mesh(), locality=0.0)
        fold_miss(memory, 5, 1000, 0)
        counters = memory.network.energy
        assert counters.bits_moved > 0
        assert counters.dynamic_joules > 0

    def test_negative_rejected(self, memory_uniform):
        with pytest.raises(ValueError):
            fold_miss(memory_uniform, 0, -1, 0)
        with pytest.raises(ValueError):
            kv_oracle.add_miss_flows(memory_uniform, 0, -1)
