"""Platform builders for the paper's four configurations."""

import numpy as np
import pytest

from repro.core.design_flow import design_vfi
from repro.core.platforms import (
    build_nvfi_mesh,
    build_vfi_mesh,
    build_vfi_winoc,
)
from repro.noc.wireless import WirelessSpec, validate_paper_overlay
from repro.vfi.islands import NOMINAL


@pytest.fixture(scope="module")
def design():
    rng = np.random.default_rng(5)
    traffic = rng.random((64, 64)) ** 2
    np.fill_diagonal(traffic, 0.0)
    utilization = np.clip(rng.normal(0.55, 0.02, 64), 0, 1)
    utilization[0] = 0.8
    return design_vfi(utilization, traffic, seed=2, structural_workers={0})


class TestNvfi:
    def test_nominal_everywhere(self):
        platform = build_nvfi_mesh()
        assert all(point == NOMINAL for point in platform.vf_points)
        assert platform.topology.name == "mesh"


class TestVfiMesh:
    def test_vfi1_and_vfi2_differ_when_reassigned(self, design):
        p1 = build_vfi_mesh(design, "vfi1", seed=1)
        p2 = build_vfi_mesh(design, "vfi2", seed=1)
        assert list(p1.vf_points) == list(design.vfi1.points)
        assert list(p2.vf_points) == list(design.vfi2.points)

    def test_mapping_honors_clustering(self, design):
        platform = build_vfi_mesh(design, "vfi2", seed=1)
        for worker, cluster in enumerate(design.worker_clusters):
            node = platform.node_of_worker(worker)
            assert platform.layout.cluster_of(node) == cluster

    def test_unknown_system(self, design):
        with pytest.raises(ValueError):
            build_vfi_mesh(design, "vfi3")


class TestVfiWinoc:
    @pytest.mark.parametrize("methodology", ["max_wireless", "min_hop"])
    def test_paper_overlay_invariants(self, design, methodology):
        platform = build_vfi_winoc(
            design, methodology=methodology, seed=4, sa_iterations=40
        )
        validate_paper_overlay(
            platform.topology, list(platform.layout.node_cluster), WirelessSpec()
        )
        # <k> = 4 wireline + wireless overlay on top
        wire_links = [
            l for l in platform.topology.links if l.kind.value == "wire"
        ]
        assert len(wire_links) == 128

    def test_mapping_honors_clustering(self, design):
        platform = build_vfi_winoc(design, seed=4)
        for worker, cluster in enumerate(design.worker_clusters):
            assert platform.layout.cluster_of(platform.node_of_worker(worker)) == cluster

    def test_unknown_methodology(self, design):
        with pytest.raises(ValueError):
            build_vfi_winoc(design, methodology="magic")

    def test_unknown_system(self, design):
        with pytest.raises(ValueError, match="unknown system 'vfi3'"):
            build_vfi_winoc(design, "vfi3")

    def test_traffic_calibration_accepted(self, design):
        rate = np.full((64, 64), 1e8)
        np.fill_diagonal(rate, 0.0)
        platform = build_vfi_winoc(design, seed=4, traffic_rate_bps=rate)
        assert platform.routing is not None
