"""End-to-end study orchestration (scaled down for test speed)."""

import numpy as np
import pytest

from repro.core.experiment import (
    NVFI_MESH,
    VFI1_MESH,
    VFI2_MESH,
    VFI2_WINOC,
    clear_study_cache,
    run_app_study,
    store_study,
)

SCALE = 0.3


@pytest.fixture(scope="module")
def study():
    return run_app_study("histogram", scale=SCALE, seed=9)


class TestStudy:
    def test_all_configs_present(self, study):
        assert set(study.results) == {NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC}

    def test_baseline_normalizes_to_one(self, study):
        assert study.normalized_time(NVFI_MESH) == pytest.approx(1.0)
        assert study.normalized_edp(NVFI_MESH) == pytest.approx(1.0)

    def test_vfi_saves_energy(self, study):
        nvfi = study.result(NVFI_MESH)
        vfi = study.result(VFI2_MESH)
        assert vfi.total_energy_j < nvfi.total_energy_j

    def test_winoc_reduces_hops(self, study):
        assert (
            study.result(VFI2_WINOC).network.average_hops
            < study.result(VFI2_MESH).network.average_hops
        )

    def test_phase_share_sums_to_one(self, study):
        shares = study.phase_share(NVFI_MESH)
        assert sum(shares.values()) == pytest.approx(1.0, rel=1e-9)

    def test_unknown_config_rejected(self, study):
        with pytest.raises(KeyError):
            study.result("vfi9_mesh")

    def test_memoization(self):
        a = run_app_study("histogram", scale=SCALE, seed=9)
        b = run_app_study("histogram", scale=SCALE, seed=9)
        assert a is b

    def test_default_axes_share_one_memo_entry(self):
        # An empty plan, the default technology and the unbounded cap
        # key like no axis at all, for a stored study as for a run one.
        from repro.faults import FaultPlan
        from repro.orchestrator import StudySpec
        from repro.power import PowerCapSpec
        from repro.tech import TechSpec

        plain = run_app_study("histogram", scale=0.05, seed=9, num_workers=16)
        assert run_app_study(
            "histogram", scale=0.05, seed=9, num_workers=16,
            fault_plan=FaultPlan(), tech=TechSpec(), power_cap=PowerCapSpec(),
        ) is plain
        clear_study_cache()
        store_study(
            StudySpec(
                "histogram", scale=0.05, seed=9, num_workers=16,
                fault_plan=FaultPlan(), tech=TechSpec(),
                power_cap=PowerCapSpec(),
            ),
            plain,
        )
        assert run_app_study(
            "histogram", scale=0.05, seed=9, num_workers=16
        ) is plain

    def test_cache_clear(self):
        a = run_app_study("histogram", scale=SCALE, seed=9)
        clear_study_cache()
        b = run_app_study("histogram", scale=SCALE, seed=9)
        assert a is not b


class TestMethodologySelection:
    def test_returns_valid_methodology(self):
        from repro.core.experiment import select_winoc_methodology

        choice = select_winoc_methodology(
            "histogram", scale=SCALE, seed=9, num_workers=16
        )
        assert choice in ("max_wireless", "min_hop")
