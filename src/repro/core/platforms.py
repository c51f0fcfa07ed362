"""Builders for the paper's four evaluated system configurations.

Every builder accepts a :class:`repro.core.geometry.DieGeometry` (or a
bare :class:`GridGeometry`, tiled with the default 2x2 island grid, or
``None`` for the paper's 8x8/4-island die).  Island layout, wireless
overlay sizing and memory-controller placement all derive from the die,
so the same builders produce 64-, 128- and 256-core platforms.  Every
builder also takes a *tech* (:class:`repro.tech.TechSpec`; ``None`` is
the paper's default, ``TechSpec()``), from which the platform's DVFS
ladder, core power, perf scales and NoC energy derive.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.design_flow import VfiDesign
from repro.core.geometry import DieGeometry, GeometryLike, as_die
from repro.core.traffic import inter_cluster_traffic
from repro.mapping.thread_mapping import (
    ThreadMapping,
    communication_aware_mapping,
    identity_mapping,
    wireless_centric_mapping,
)
from repro.noc.calibration import calibrated_fabric
from repro.noc.energy import NocEnergyParams
from repro.noc.network import NocParams
from repro.noc.placement import (
    center_wireless_placement,
    optimize_wireless_placement,
)
from repro.noc.routing import build_mesh_routing
from repro.noc.smallworld import SmallWorldConfig, build_small_world
from repro.noc.topology import GridGeometry, build_mesh
from repro.noc.wireless import WirelessSpec, assign_wireless_links
from repro.energy.core_power import CorePowerParams
from repro.sim.config import MemoryParams
from repro.sim.platform import Platform
from repro.tech.spec import TechSpec, normalize_tech
from repro.utils.rng import SeedLike, spawn_seed
from repro.vfi.islands import VfiLayout

#: Dies larger than the paper's 64 cores build their all-pairs NoC
#: tables in source blocks of this size with float32 storage, keeping
#: peak RSS bounded; the 64-core paper platform walks one block and
#: stores float64.
LARGE_DIE_BLOCK_NODES = 64


def default_geometry() -> GridGeometry:
    """The paper's 8x8, 64-core die (mesh only; see :func:`default_die`)."""
    return GridGeometry(8, 8)


def default_die() -> DieGeometry:
    """The paper's 8x8 die with four 4x4 quadrant islands."""
    return DieGeometry.paper()


def geometry_for(num_cores: int) -> GridGeometry:
    """Square die for *num_cores* (must be a square of an even side, so
    the default 2x2 island grid divides it).

    Non-square core counts resolve through
    :meth:`repro.core.geometry.DieGeometry.for_cores` / :func:`die_for`
    instead, which pick the most square rectangular mesh.
    """
    side = int(round(num_cores**0.5))
    if side * side != num_cores:
        raise ValueError(
            f"{num_cores} cores do not form a square grid; use "
            "DieGeometry.for_cores (repro.core.geometry) for rectangular "
            "dies such as 128 = 16x8"
        )
    if side % 2:
        raise ValueError(
            f"side {side} must be even for the default 2x2 island grid; "
            "use DieGeometry.for_cores / DieGeometry.from_grid to pick an "
            "island tiling explicitly"
        )
    return GridGeometry(side, side)


def die_for(num_cores: int, num_islands: int = 4) -> DieGeometry:
    """Concrete die for a core count (most square mesh + island tiling)."""
    return DieGeometry.for_cores(num_cores, num_islands=num_islands)


def memory_params_for(geometry: GeometryLike) -> MemoryParams:
    """Memory controllers at the die corners, whatever the die size."""
    grid = as_die(geometry).grid()
    corners = (
        grid.node_at(0, 0),
        grid.node_at(grid.columns - 1, 0),
        grid.node_at(0, grid.rows - 1),
        grid.node_at(grid.columns - 1, grid.rows - 1),
    )
    return MemoryParams(controller_nodes=corners)


def noc_params_for(die: DieGeometry) -> NocParams:
    """Flow-model parameters sized for the die.

    One builder makes every all-pairs NoC table; ``dense_block_nodes``
    picks its source block size and storage.  The paper's 64-core die
    leaves it unset (one block, float64 tables); larger dies walk
    64-source blocks and store float32, so 256-core platforms stay
    within a bounded peak RSS.
    """
    if die.num_cores <= 64:
        return NocParams()
    return NocParams(dense_block_nodes=LARGE_DIE_BLOCK_NODES)


def _tech_platform_kwargs(tech: TechSpec, num_islands: int) -> dict:
    """Platform fields the technology derives: its ladder, per-island
    core power and perf scales, and NoC energy.  ``TechSpec()`` derives
    the paper platform's values bit for bit."""
    node = tech.tech_node()
    mix = tech.mix_for(num_islands)
    defaults = NocEnergyParams()
    return {
        "dvfs_ladder": tech.ladder(),
        "core_power_params": CorePowerParams.from_tech(node),
        "island_core_power": tuple(
            CorePowerParams.from_tech(node, name) for name in mix.types
        ),
        "perf_scales": mix.perf_scales(),
        # The NoC shrinks with the cores: per-bit dynamic energy follows
        # the node's C*V^2 trajectory, switch leakage its leakage one.
        "noc_energy_params": NocEnergyParams(
            router_pj_per_bit=defaults.router_pj_per_bit * node.dynamic_scale,
            wire_pj_per_bit_per_mm=(
                defaults.wire_pj_per_bit_per_mm * node.dynamic_scale
            ),
            wireless_pj_per_bit=(
                defaults.wireless_pj_per_bit * node.dynamic_scale
            ),
            switch_leakage_w=defaults.switch_leakage_w * node.leakage_scale,
        ),
    }


def _check_design(design: VfiDesign, die: DieGeometry) -> None:
    if design.num_islands != die.num_islands:
        raise ValueError(
            f"design has {design.num_islands} islands but the die tiles "
            f"into {die.num_islands}; build the design with "
            f"num_islands={die.num_islands} or pick a matching DieGeometry"
        )


def build_nvfi_mesh(
    geometry: GeometryLike = None,
    name: str = "nvfi-mesh",
    tech: Optional[TechSpec] = None,
) -> Platform:
    """Baseline: every island at nominal V/F, mesh NoC, identity mapping.

    The island layout is kept (it is physically there) but all islands
    run the node's nominal point (1.0 V / 2.5 GHz at the default 65 nm),
    so the platform behaves as a single clock/voltage domain.
    """
    tech = normalize_tech(tech)
    die = as_die(geometry)
    layout = die.layout()
    mesh = build_mesh(die.grid())
    nominal = tech.ladder()[-1]
    return Platform(
        name=name,
        layout=layout,
        vf_points=[nominal] * layout.num_clusters,
        topology=mesh,
        routing=build_mesh_routing(mesh),
        mapping=identity_mapping(die.num_cores),
        memory_params=memory_params_for(die),
        noc_params=noc_params_for(die),
        **_tech_platform_kwargs(tech, layout.num_clusters),
    )


def vfi_thread_mapping(
    design: VfiDesign,
    layout: VfiLayout,
    seed: SeedLike = None,
    iterations: int = 2000,
) -> ThreadMapping:
    """Place cluster *j*'s workers on island *j*, communication-aware."""
    return communication_aware_mapping(
        design.worker_clusters,
        layout,
        design.traffic,
        iterations=iterations,
        seed=seed,
    )


def build_vfi_mesh(
    design: VfiDesign,
    system: str = "vfi2",
    geometry: GeometryLike = None,
    mapping: Optional[ThreadMapping] = None,
    seed: SeedLike = None,
    name: Optional[str] = None,
    tech: Optional[TechSpec] = None,
) -> Platform:
    """VFI 1 or VFI 2 system on the baseline mesh interconnect."""
    tech = normalize_tech(tech)
    die = as_die(geometry, num_islands=design.num_islands)
    _check_design(design, die)
    layout = die.layout()
    assignment = design.assignment(system)
    if mapping is None:
        mapping = vfi_thread_mapping(design, layout, seed=seed)
    mesh = build_mesh(die.grid())
    return Platform(
        name=name or f"{system}-mesh",
        layout=layout,
        vf_points=list(assignment.points),
        topology=mesh,
        routing=build_mesh_routing(mesh),
        mapping=mapping,
        memory_params=memory_params_for(die),
        noc_params=noc_params_for(die),
        **_tech_platform_kwargs(tech, layout.num_clusters),
    )


def build_vfi_winoc(
    design: VfiDesign,
    system: str = "vfi2",
    methodology: str = "max_wireless",
    geometry: GeometryLike = None,
    smallworld_config: SmallWorldConfig = SmallWorldConfig(),
    wireless_spec: WirelessSpec = WirelessSpec(),
    sa_iterations: int = 300,
    seed: SeedLike = 11,
    traffic_rate_bps: Optional[np.ndarray] = None,
    name: Optional[str] = None,
    tech: Optional[TechSpec] = None,
) -> Platform:
    """VFI system on the wireless small-world NoC (paper Secs. 5-6).

    ``methodology`` selects the placement/mapping strategy:

    * ``"max_wireless"`` -- WIs at island centers + "logically near,
      physically far" thread mapping (the configuration the paper finds
      consistently better, Fig. 6);
    * ``"min_hop"`` -- communication-aware mapping + simulated-annealing
      WI placement minimizing traffic-weighted hop count.

    ``traffic_rate_bps`` is an optional *worker-level* sustained traffic
    estimate (bits/s); when given, the wireless routing weights are
    congestion-calibrated so no token channel is oversubscribed
    (:mod:`repro.noc.calibration`).

    Overlay sizing derives from the die: every island holds one WI per
    channel (``K * num_channels`` WIs total), each token ring spans ``K``
    WIs, and the small-world inter-island link quota is checked against
    the ``K``-island pair count (:meth:`SmallWorldConfig.sized_for`).
    """
    if methodology not in ("max_wireless", "min_hop"):
        raise ValueError(f"unknown methodology {methodology!r}")
    tech = normalize_tech(tech)
    die = as_die(geometry, num_islands=design.num_islands)
    _check_design(design, die)
    layout = die.layout()
    grid = die.grid()
    smallworld_config = smallworld_config.sized_for(
        die.num_cores, die.num_islands
    )
    wireless_spec = wireless_spec.sized_for_islands(die.num_islands)
    assignment = design.assignment(system)
    base_seed = seed if isinstance(seed, int) else 11

    # 1. Thread mapping.
    if methodology == "min_hop":
        mapping = vfi_thread_mapping(
            design, layout, seed=spawn_seed(base_seed, "mapping")
        )
    else:
        # WI sites are known up front (island centers): they anchor the
        # mapping and are the overlay's placement.
        placement = center_wireless_placement(
            grid, layout.node_cluster, wireless_spec.num_channels
        )
        wi_nodes = sorted(
            node for nodes in placement.values() for node in nodes
        )
        mapping = wireless_centric_mapping(
            design.worker_clusters,
            layout,
            design.traffic,
            wi_nodes,
            seed=spawn_seed(base_seed, "mapping"),
        )

    # 2. Node-level traffic implied by the mapping; inter-island volumes
    #    drive the small-world link quotas.
    node_traffic = mapping.map_traffic(design.traffic)
    cluster_traffic = inter_cluster_traffic(
        node_traffic, layout.node_cluster, layout.num_clusters
    )

    # 3. Wireline small-world fabric.
    wireline = build_small_world(
        grid,
        list(layout.node_cluster),
        inter_cluster_traffic=cluster_traffic,
        config=smallworld_config,
        seed=spawn_seed(base_seed, "smallworld"),
        name="small-world",
    )

    # 4. Wireless overlay: the min-hop methodology anneals its WI sites
    #    over the wired fabric.
    if methodology == "min_hop":
        placement = optimize_wireless_placement(
            wireline,
            list(layout.node_cluster),
            node_traffic,
            spec=wireless_spec,
            iterations=sa_iterations,
            seed=spawn_seed(base_seed, "placement"),
        )
    winoc = assign_wireless_links(wireline, placement, wireless_spec)

    # 5. Congestion-calibrated routing over the combined fabric, priced
    #    on the fabric the platform's network adopts (held here until
    #    then), so its routing is walked once.
    rate_matrix = None
    if traffic_rate_bps is not None:
        rate_matrix = mapping.map_traffic(np.asarray(traffic_rate_bps))
    noc_params = noc_params_for(die)
    fabric = calibrated_fabric(
        winoc, rate_matrix, wireless=wireless_spec, params=noc_params
    )

    return Platform(
        name=name or f"{system}-winoc-{methodology}",
        layout=layout,
        vf_points=list(assignment.points),
        topology=winoc,
        routing=fabric.routing,
        mapping=mapping,
        wireless_spec=wireless_spec,
        memory_params=memory_params_for(die),
        noc_params=noc_params,
        **_tech_platform_kwargs(tech, layout.num_clusters),
    )
