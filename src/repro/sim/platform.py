"""Platform: the complete hardware configuration a trace runs on.

A platform bundles the physical island layout, the per-island V/F
assignment, the interconnect (topology + routing + flow model), the
thread mapping, and the power models.  The four system configurations of
the paper are all platforms:

* **NVFI mesh** -- one nominal V/F everywhere, mesh, identity mapping;
* **VFI 1 mesh** -- QP clustering + initial V/F, mesh;
* **VFI 2 mesh** -- VFI 1 with bottleneck islands raised one step;
* **VFI 2 WiNoC** -- VFI 2 V/F on the small-world + wireless fabric with
  one of the two placement/mapping methodologies.

A platform's interconnect is one shared structure with its clocks
applied on top: its network finds the :class:`repro.noc.fabric.Fabric`
holding the topology's routings, walks and clock-free tables by content
(:func:`repro.noc.fabric.fabric_for`), so every platform over the same
topology and routing -- the NVFI and both VFI meshes of a die,
:meth:`Platform.with_vf` / :meth:`Platform.with_power` copies, the cap
governor's re-clocked views and the fault engine's throttled views --
shares it by construction, and builds only the tables of its own clock
vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.energy.core_power import CorePowerModel, CorePowerParams
from repro.mapping.thread_mapping import ThreadMapping, identity_mapping
from repro.noc.energy import NocEnergyParams
from repro.noc.network import FlowNetworkModel, NocParams
from repro.noc.routing import RoutingTable
from repro.noc.topology import Topology
from repro.noc.wireless import WirelessSpec
from repro.sim.config import CoreParams, MemoryParams
from repro.vfi.islands import DVFS_LADDER, VfPoint, VfiLayout


@dataclass
class Platform:
    """One simulatable hardware configuration."""

    name: str
    layout: VfiLayout
    vf_points: Sequence[VfPoint]
    topology: Topology
    routing: RoutingTable
    mapping: Optional[ThreadMapping] = None
    core_params: CoreParams = field(default_factory=CoreParams)
    memory_params: MemoryParams = field(default_factory=MemoryParams)
    noc_params: NocParams = field(default_factory=NocParams)
    wireless_spec: WirelessSpec = field(default_factory=WirelessSpec)
    core_power_params: CorePowerParams = field(default_factory=CorePowerParams)
    noc_energy_params: NocEnergyParams = field(default_factory=NocEnergyParams)
    #: Technology axis.  Left out, each takes the paper platform's
    #: value, which is also what ``TechSpec()`` derives.
    #: The node's DVFS ladder (the paper's 65 nm ladder when not given).
    dvfs_ladder: Optional[Tuple[VfPoint, ...]] = None
    #: Per-island core power params (heterogeneous core mixes);
    #: ``core_power_params`` on every island when not given.
    island_core_power: Optional[Tuple[CorePowerParams, ...]] = None
    #: Per-island core performance multipliers (IPC proxy for in-order
    #: vs out-of-order cores; scales effective worker frequency); 1.0
    #: on every island when not given.
    perf_scales: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        num_islands = self.layout.num_clusters
        if self.dvfs_ladder is None:
            self.dvfs_ladder = DVFS_LADDER
        if self.island_core_power is None:
            self.island_core_power = (self.core_power_params,) * num_islands
        if self.perf_scales is None:
            self.perf_scales = (1.0,) * num_islands
        self.dvfs_ladder = tuple(self.dvfs_ladder)
        self.island_core_power = tuple(self.island_core_power)
        self.perf_scales = tuple(float(s) for s in self.perf_scales)
        for what, per_island in (
            ("V/F points", self.vf_points),
            ("island power params", self.island_core_power),
            ("perf scales", self.perf_scales),
        ):
            if len(per_island) != num_islands:
                raise ValueError(
                    f"{len(per_island)} {what} for {num_islands} islands"
                )
        if self.mapping is None:
            self.mapping = identity_mapping(self.num_cores)
        if self.mapping.num_workers != self.num_cores:
            raise ValueError(
                f"mapping covers {self.mapping.num_workers} workers, "
                f"platform has {self.num_cores} cores"
            )
        self._island_power_models = tuple(
            CorePowerModel(params) for params in self.island_core_power
        )
        self.network = self.build_network()

    @property
    def num_cores(self) -> int:
        return self.layout.geometry.num_nodes

    def build_network(self) -> FlowNetworkModel:
        """Fresh flow model (loads, energy counters) over this platform's
        fabric and clocks."""
        return FlowNetworkModel(
            topology=self.topology,
            routing=self.routing,
            clusters=list(self.layout.node_cluster),
            cluster_frequencies_hz=[p.frequency_hz for p in self.vf_points],
            cluster_voltages=[p.voltage_v for p in self.vf_points],
            params=self.noc_params,
            wireless=self.wireless_spec,
            energy_params=self.noc_energy_params,
        )

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #

    def node_of_worker(self, worker: int) -> int:
        return self.mapping.node_of(worker)

    def island_of_worker(self, worker: int) -> int:
        return self.layout.cluster_of(self.node_of_worker(worker))

    def vf_of_worker(self, worker: int) -> VfPoint:
        return self.vf_points[self.island_of_worker(worker)]

    def frequency_of_worker(self, worker: int) -> float:
        return self.vf_of_worker(worker).frequency_hz

    def worker_frequencies(self) -> List[float]:
        return [self.frequency_of_worker(w) for w in range(self.num_cores)]

    @property
    def ladder(self) -> Tuple[VfPoint, ...]:
        """This platform's DVFS ladder (its technology node's)."""
        return self.dvfs_ladder

    def core_power_of(self, island: int) -> CorePowerModel:
        """Core power model of *island*."""
        return self._island_power_models[island]

    def perf_scale_of_worker(self, worker: int) -> float:
        return self.perf_scales[self.island_of_worker(worker)]

    def effective_frequency_of_worker(self, worker: int) -> float:
        """Island clock x core-type performance multiplier (IPC proxy).

        On the homogeneous paper platform the multiplier is 1.0, so this
        IS the island clock -- heterogeneous mixes slow in-order
        islands' task throughput without touching the NoC clocks, which
        stay at ``vf_points``.
        """
        return self.frequency_of_worker(worker) * self.perf_scale_of_worker(worker)

    def effective_worker_frequencies(self) -> List[float]:
        clocks = [
            point.frequency_hz * scale
            for point, scale in zip(self.vf_points, self.perf_scales)
        ]
        return [clocks[self.island_of_worker(w)] for w in range(self.num_cores)]

    @property
    def fmax_hz(self) -> float:
        return max(point.frequency_hz for point in self.vf_points)

    def with_vf(self, vf_points: Sequence[VfPoint], name: Optional[str] = None) -> "Platform":
        """Same fabric and mapping, different island V/F assignment."""
        return replace(self, name=name or self.name, vf_points=list(vf_points))

    def with_power(
        self,
        core_power_params=None,
        noc_energy_params=None,
        name: Optional[str] = None,
    ) -> "Platform":
        """Same platform with different power/energy model constants
        (used by the sensitivity analysis)."""
        return replace(
            self,
            name=name or self.name,
            vf_points=list(self.vf_points),
            core_power_params=core_power_params or self.core_power_params,
            noc_energy_params=noc_energy_params or self.noc_energy_params,
            # Overriding the shared power params (sensitivity analysis)
            # supersedes any per-island table: it is filled in again
            # from the new shared params.
            island_core_power=(
                None if core_power_params is not None else self.island_core_power
            ),
        )
