"""Network-on-chip substrate: topologies, routing, wireless links, timing
and energy models.

Two interconnects are modeled, following the paper:

* the baseline **mesh** NoC (multi-hop, wormhole, XY routing);
* the **WiNoC**: a small-world wireline fabric built with a power-law
  wiring-cost model (``<k> = 4`` average connections per switch, a
  ``kmax`` port cap, and the VFI-aware ``(<k_intra>, <k_inter>)`` split of
  Sec. 5), overlaid with 12 mm-wave wireless interfaces in 3
  non-overlapping token-MAC channels (Sec. 6).

Timing uses a contention-aware flow model: per-phase traffic flows are
assigned to shortest paths, per-link utilization produces M/D/1-style
queueing delay on top of per-hop router/link latency, and wireless
channels are shared serialized resources with token overhead.  Energy
uses per-flit switch/wire/wireless numbers from the authors' companion
65-nm characterization (Deb et al., IEEE TC 2013).
"""

from repro.noc.energy import NocEnergyModel, NocEnergyParams
from repro.noc.network import FlowNetworkModel, NetworkLoad
from repro.noc.packets import PacketClass, packet_flits
from repro.noc.placement import (
    center_wireless_placement,
    optimize_wireless_placement,
)
from repro.noc.routing import RoutingTable, build_routing_table
from repro.noc.smallworld import SmallWorldConfig, build_small_world
from repro.noc.topology import (
    GridGeometry,
    Link,
    LinkKind,
    Topology,
    build_mesh,
)
from repro.noc.visualize import (
    describe_topology,
    render_die_map,
    render_link_histogram,
    render_vf_map,
)
from repro.noc.wireless import WirelessChannel, WirelessSpec, assign_wireless_links

__all__ = [
    "GridGeometry",
    "Link",
    "LinkKind",
    "Topology",
    "build_mesh",
    "SmallWorldConfig",
    "build_small_world",
    "WirelessSpec",
    "WirelessChannel",
    "assign_wireless_links",
    "RoutingTable",
    "build_routing_table",
    "FlowNetworkModel",
    "NetworkLoad",
    "PacketClass",
    "packet_flits",
    "NocEnergyModel",
    "NocEnergyParams",
    "center_wireless_placement",
    "optimize_wireless_placement",
    "describe_topology",
    "render_die_map",
    "render_link_histogram",
    "render_vf_map",
]
