"""Parameter validation across the NoC configuration objects."""

import pytest

from repro.noc.network import NocParams
from repro.noc.smallworld import SmallWorldConfig
from repro.noc.energy import NocEnergyParams
from repro.sim.config import CoreParams, MemoryParams


class TestNocParams:
    def test_defaults_match_paper(self):
        params = NocParams()
        assert params.flit_bits == 32  # paper Sec. 7
        assert params.wire_buffer_flits == 2
        assert params.wi_buffer_flits == 8

    @pytest.mark.parametrize(
        "field,value",
        [
            ("flit_bits", 0),
            ("router_pipeline_cycles", 0),
            ("link_traversal_cycles", -1),
            ("wire_buffer_flits", 0),
            ("wi_buffer_flits", 0),
            ("max_utilization", 1.0),
            ("max_utilization", 0.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            NocParams(**{field: value})


class TestSmallWorldConfig:
    def test_k_total(self):
        assert SmallWorldConfig(3.0, 1.0).k_total == 4.0

    def test_alpha_average(self):
        config = SmallWorldConfig(alpha_intra=3.0, alpha_inter=1.0)
        assert config.alpha == 2.0

    @pytest.mark.parametrize("field", ["k_intra", "k_inter", "kmax", "alpha_intra"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            SmallWorldConfig(**{field: 0})


class TestEnergyParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NocEnergyParams(router_pj_per_bit=0)
        with pytest.raises(ValueError):
            NocEnergyParams(switch_leakage_w=-1)


class TestCoreParams:
    def test_ipc_cannot_exceed_width(self):
        with pytest.raises(ValueError):
            CoreParams(ipc=3.0, issue_width=2.0)

    def test_rejects_nonpositive_mlp(self):
        with pytest.raises(ValueError):
            CoreParams(mlp_overlap=0)


class TestMemoryParams:
    def test_needs_controllers(self):
        with pytest.raises(ValueError):
            MemoryParams(controller_nodes=())

    def test_rejects_bad_latency(self):
        with pytest.raises(ValueError):
            MemoryParams(dram_latency_s=0)
