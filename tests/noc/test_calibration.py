"""Congestion-aware wireless routing calibration.

Channel loads are read off the walk of the fabric a network over the
routing uses (:func:`repro.noc.fabric.fabric_for`)."""

import numpy as np
import pytest

from repro.noc.calibration import (
    calibrated_fabric,
    channel_utilizations,
    make_weight_fn,
)
from repro.noc.fabric import fabric_for
from repro.noc.network import NocParams
from repro.noc.smallworld import build_small_world
from repro.noc.topology import GridGeometry, LinkKind
from repro.noc.wireless import WirelessSpec, assign_wireless_links
from repro.noc.placement import center_wireless_placement
from repro.vfi.islands import quadrant_clusters

GEO = GridGeometry(8, 8)
CLUSTERS = list(quadrant_clusters(GEO).node_cluster)


@pytest.fixture(scope="module")
def winoc():
    wireline = build_small_world(GEO, CLUSTERS, seed=3)
    return assign_wireless_links(wireline, center_wireless_placement(GEO, CLUSTERS))


def utilization(winoc, routing, rate, spec=WirelessSpec()):
    """Per-channel utilization of *rate* on *routing*."""
    fabric = fabric_for(winoc, routing, spec.num_channels, NocParams())
    return channel_utilizations(fabric, rate, spec.bandwidth_bps)


def uniform_rate(total_bps):
    rate = np.full((64, 64), total_bps / (64 * 63))
    np.fill_diagonal(rate, 0.0)
    return rate


class TestCalibration:
    def test_no_traffic_keeps_initial_weight(self, winoc):
        routing = calibrated_fabric(winoc, None).routing
        assert routing is not None

    def test_light_load_uses_wireless(self, winoc):
        routing = calibrated_fabric(winoc, uniform_rate(10e9)).routing
        rho = utilization(winoc, routing, uniform_rate(10e9))
        assert rho.sum() > 0  # wireless actually carries traffic

    def test_heavy_load_keeps_channels_under_target(self, winoc):
        heavy = uniform_rate(1.5e12)
        routing = calibrated_fabric(
            winoc, heavy, target_utilization=0.7
        ).routing
        rho = utilization(winoc, routing, heavy)
        # Calibration backs traffic off the channels (it may not fully
        # converge in max_iterations, but must at least reduce vs the
        # uncalibrated routing by a wide margin).
        uncalibrated = calibrated_fabric(winoc, None).routing
        rho0 = utilization(winoc, uncalibrated, heavy)
        assert rho.max() < rho0.max()

    def test_weight_fn(self):
        weight = make_weight_fn({0: 3.0})
        from repro.noc.topology import Link

        assert weight(Link(0, 1, LinkKind.WIRELESS, 5.0, channel=0)) == 3.0
        assert weight(Link(0, 1, LinkKind.WIRE, 2.5)) == 1.0

    def test_bad_target_rejected(self, winoc):
        with pytest.raises(ValueError):
            calibrated_fabric(winoc, None, target_utilization=1.5)
