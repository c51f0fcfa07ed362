"""Congestion-aware wireless routing calibration.

The deterministic router prefers a wireless hop whenever it beats the
wire path at the nominal weight -- but a token-MAC channel is a shared
16 Gbps medium, and a data-intensive MapReduce phase can offer far more
long-range traffic than three channels can carry.  Real WiNoCs handle
this with congestion-aware arbitration/routing; statically, the same
effect is achieved by *calibrating* the wireless routing weight per
channel against the application's offered load:

1. route with the current weights and assign the estimated traffic;
2. compute each channel's utilization;
3. raise the weight of any channel loaded beyond the target utilization
   (fewer pairs then choose it) and repeat.

The fixed point keeps every wireless channel below the target load, so
the wireless links serve the longest paths -- where they save the most
latency and energy -- instead of melting down under uniform traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.noc.network import FlowNetworkModel, NocParams
from repro.noc.routing import RoutingTable, build_routing_table
from repro.noc.topology import Link, LinkKind, Topology
from repro.noc.wireless import WirelessSpec
from repro.utils.validation import check_in_range, check_positive


def make_weight_fn(channel_weights: Dict[int, float]):
    """Routing weight function with per-channel wireless weights.

    Wire links use the library's default length-aware weight
    (:func:`repro.noc.routing.default_link_weight`)."""
    from repro.noc.routing import default_link_weight

    def weight(link: Link) -> float:
        if link.kind is LinkKind.WIRELESS:
            return channel_weights.get(link.channel, 1.2)
        return default_link_weight(link)

    return weight


def channel_utilizations(
    topology: Topology,
    routing: RoutingTable,
    clusters: Sequence[int],
    cluster_frequencies_hz: Sequence[float],
    traffic_rate_bps: np.ndarray,
    wireless: WirelessSpec,
    params: NocParams = NocParams(),
) -> np.ndarray:
    """Per-channel utilization under *traffic_rate_bps* with *routing*."""
    model = FlowNetworkModel(
        topology=topology,
        routing=routing,
        clusters=list(clusters),
        cluster_frequencies_hz=list(cluster_frequencies_hz),
        params=params,
        wireless=wireless,
    )
    n = topology.num_nodes
    if traffic_rate_bps.shape != (n, n):
        raise ValueError(
            f"traffic {traffic_rate_bps.shape} does not match {n} nodes"
        )
    # One flow per positive-rate pair, in (src, dst) order: every
    # crossing adds the pair's rate to its channel.  bincount adds in
    # entry order, and csr rows run in pair order, so each channel sums
    # exactly the sequence of rates a per-pair registration loop would.
    channels = model.fabric.flow_usage()[:, 2 * len(topology.links):]
    crossings = channels.data.astype(np.intp)
    pairs = np.repeat(np.arange(n * n), np.diff(channels.indptr))
    rate = traffic_rate_bps.ravel()
    rate = np.where(rate > 0, rate, 0.0)
    load = np.bincount(
        np.repeat(channels.indices, crossings),
        weights=np.repeat(rate[pairs], crossings),
        minlength=channels.shape[1],
    )
    return load / wireless.bandwidth_bps


def calibrate_wireless_routing(
    topology: Topology,
    clusters: Sequence[int],
    cluster_frequencies_hz: Sequence[float],
    traffic_rate_bps: Optional[np.ndarray],
    wireless: WirelessSpec = WirelessSpec(),
    target_utilization: float = 0.7,
    initial_weight: float = 1.2,
    max_iterations: int = 8,
    max_weight: float = 64.0,
) -> RoutingTable:
    """Routing table with wireless weights tuned to the offered load.

    With ``traffic_rate_bps=None`` (no load estimate) the initial weight
    is used unchanged.
    """
    check_in_range("target_utilization", target_utilization, 0.0, 1.0, inclusive=False)
    check_positive("initial_weight", initial_weight)
    weights: Dict[int, float] = {
        channel: initial_weight for channel in range(wireless.num_channels)
    }
    routing = build_routing_table(topology, weight=make_weight_fn(weights))
    if traffic_rate_bps is None:
        return routing
    for _ in range(max_iterations):
        rho = channel_utilizations(
            topology,
            routing,
            clusters,
            cluster_frequencies_hz,
            traffic_rate_bps,
            wireless,
        )
        overloaded = rho > target_utilization
        if not overloaded.any():
            break
        for channel in np.nonzero(overloaded)[0]:
            scale = (rho[channel] / target_utilization) ** 0.7
            weights[int(channel)] = min(
                weights[int(channel)] * max(scale, 1.05), max_weight
            )
        routing = build_routing_table(topology, weight=make_weight_fn(weights))
    return routing
