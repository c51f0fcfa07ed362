"""Figure-series builders over scaled-down studies."""

import numpy as np
import pytest

from repro.analysis.figures import (
    FIG4_APPS,
    figure2_utilization,
    figure4_vfi1_vs_vfi2,
    figure5_bottleneck_utilization,
    figure6_placement_comparison,
    figure7_phase_times,
    figure8_full_system_edp,
    collect_studies,
)

SCALE = 0.3
SEED = 9


@pytest.fixture(scope="module")
def studies():
    return collect_studies(scale=SCALE, seed=SEED)


class TestFigure2:
    def test_sorted_descending(self, studies):
        series = figure2_utilization(studies)
        assert set(series) == {"Kmeans", "PCA", "MM", "HIST"}
        for values in series.values():
            assert (np.diff(values) <= 1e-12).all()
            assert len(values) == 64
            assert values.max() <= 1.0


class TestFigure4:
    def test_structure(self, studies):
        data = figure4_vfi1_vs_vfi2(studies)
        assert set(data) == {"execution_time", "edp"}
        for metric in data.values():
            assert set(metric) == {"PCA", "HIST", "MM"}
            for vfi1, vfi2 in metric.values():
                assert vfi1 > 0 and vfi2 > 0

    def test_vfi2_no_slower(self, studies):
        data = figure4_vfi1_vs_vfi2(studies)
        for label, (vfi1, vfi2) in data["execution_time"].items():
            assert vfi2 <= vfi1 + 1e-9


class TestFigure5:
    def test_bottleneck_above_average(self, studies):
        data = figure5_bottleneck_utilization(studies)
        for label, (average, bottleneck) in data.items():
            assert bottleneck > average


class TestFigure6:
    def test_histogram_ratio_is_pinned(self):
        # Max-wireless over min-hop network EDP of the 64-core histogram
        # study at scale 0.05, seed 9, as first measured.
        ratio = figure6_placement_comparison(("histogram",), scale=0.05, seed=9)
        assert ratio == {"HIST": float.fromhex("0x1.002366be440f5p+0")}


class TestFigure7:
    def test_phase_breakdown(self, studies):
        data = figure7_phase_times(studies)
        assert len(data) == 6
        for app_label, configs in data.items():
            assert set(configs) == {"VFI Mesh", "VFI WiNoC"}
            for phases in configs.values():
                assert set(phases) == {"map", "reduce", "merge", "lib_init"}
                total = sum(phases.values())
                assert 0.5 < total < 2.0  # normalized to NVFI total


class TestFigure8:
    def test_pairs(self, studies):
        data = figure8_full_system_edp(studies)
        assert len(data) == 6
        for mesh_edp, winoc_edp in data.values():
            assert mesh_edp > 0 and winoc_edp > 0
