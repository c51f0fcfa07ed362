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

from typing import Dict, Optional

import numpy as np

from repro.noc.fabric import Fabric, fabric_for
from repro.noc.network import NocParams
from repro.noc.routing import build_routing_table
from repro.noc.topology import Link, LinkKind, Topology
from repro.noc.wireless import WirelessSpec
from repro.telemetry import get_tracer
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
    fabric: Fabric, traffic_rate_bps: np.ndarray, bandwidth_bps: float
) -> np.ndarray:
    """Per-channel utilization of *traffic_rate_bps* (an ``(n, n)``
    pair-rate matrix; non-positive rates carry nothing) routed on
    *fabric*'s latency routing.

    Every wireless crossing is read off the fabric's forward walk
    (:meth:`repro.noc.fabric.Fabric.walks`), so no usage csr is built.
    Crossings are stable-sorted by pair and summed with ``np.bincount``,
    which adds each channel's rates in ascending pair order, a pair that
    crosses a channel twice twice in a row -- the order in which a
    per-pair registration loop, or the flow-usage csr's rows, add them.
    """
    n = fabric.num_nodes
    if traffic_rate_bps.shape != (n, n):
        raise ValueError(
            f"traffic {traffic_rate_bps.shape} does not match {n} nodes"
        )
    _, chan_col = fabric.edge_columns()
    pairs, channels = [], []
    for start, _, walk in fabric.walks(False):
        route = walk.order.astype(np.intp) + start * n
        for u, v in walk.steps():
            channel = chan_col[u, v]
            crossing = channel >= 0
            pairs.append(route[: len(u)][crossing])
            channels.append(channel[crossing])
    first_channel = 2 * fabric.num_links
    if pairs:
        pairs, channels = np.concatenate(pairs), np.concatenate(channels)
    else:
        pairs = channels = np.empty(0, dtype=np.intp)
    by_pair = np.argsort(pairs, kind="stable")
    rate = traffic_rate_bps.ravel()
    rate = np.where(rate > 0, rate, 0.0)
    load = np.bincount(
        channels[by_pair] - first_channel,
        weights=rate[pairs[by_pair]],
        minlength=fabric.num_resources - first_channel,
    )
    return load / bandwidth_bps


def calibrated_fabric(
    topology: Topology,
    traffic_rate_bps: Optional[np.ndarray],
    wireless: WirelessSpec = WirelessSpec(),
    params: NocParams = NocParams(),
    target_utilization: float = 0.7,
    initial_weight: float = 1.2,
    max_iterations: int = 8,
    max_weight: float = 64.0,
) -> Fabric:
    """The :class:`repro.noc.fabric.Fabric` of the routing whose
    wireless weights are tuned to the offered load *traffic_rate_bps*
    (node-level bits/s); its ``routing`` is the calibrated routing.

    Each candidate routing is priced on the fabric a network over it
    would use (:func:`repro.noc.fabric.fabric_for` with *params*' table
    layout), so the winner's fabric -- its walk included -- is the one
    a platform built on the returned routing adopts, as long as the
    caller holds it until then.  With ``traffic_rate_bps=None`` (no
    load estimate) the initial weight is used unchanged and nothing is
    walked.  A ``noc.calibration`` wall span carries the number of
    candidate routings priced.
    """
    check_in_range("target_utilization", target_utilization, 0.0, 1.0, inclusive=False)
    check_positive("initial_weight", initial_weight)
    weights: Dict[int, float] = {
        channel: initial_weight for channel in range(wireless.num_channels)
    }

    def fabric_of_weights() -> Fabric:
        routing = build_routing_table(topology, weight=make_weight_fn(weights))
        return fabric_for(topology, routing, wireless.num_channels, params)

    with get_tracer().wall_span("noc.calibration", cat="noc") as span:
        fabric = fabric_of_weights()
        priced = 0
        if traffic_rate_bps is not None:
            for _ in range(max_iterations):
                rho = channel_utilizations(
                    fabric, traffic_rate_bps, wireless.bandwidth_bps
                )
                priced += 1
                overloaded = rho > target_utilization
                if not overloaded.any():
                    break
                for channel in np.nonzero(overloaded)[0]:
                    scale = (rho[channel] / target_utilization) ** 0.7
                    weights[int(channel)] = min(
                        weights[int(channel)] * max(scale, 1.05), max_weight
                    )
                fabric = fabric_of_weights()
        span["candidates"] = priced
    return fabric

