"""Chip power-budget accounting: the dark-silicon frontier.

At a fixed chip power budget, not every core of a scaled-down die can
run at nominal V/F at once -- the fraction that must stay idle is the
node's *dark silicon*.  This module prices a die (node x core mix) at
its nominal operating point and reports, for any cap:

* the **active-core ceiling** -- the largest number of cores whose
  summed peak power (busy dynamic + leakage at the node's nominal rail)
  fits the cap, activating the cheapest cores first so the ceiling is
  the physical maximum;
* the **dark fraction** -- the remainder of the die that the cap keeps
  off;
* a **throughput proxy** for the active set (per-core perf multiplier x
  node clock, normalized to one 65 nm out-of-order core), which is what
  the ``repro tech frontier`` sweep plots across nodes.

The ceiling is nonincreasing as the cap tightens and nondecreasing as
it relaxes -- a property test in ``tests/tech/test_properties.py`` pins
this for arbitrary node/mix/cap combinations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

from repro.tech.cores import CoreMix, CoreType, get_core_type, resolve_mix
from repro.tech.nodes import BASE_FREQ_GHZ, TechNode, get_node
from repro.utils.units import GHZ


def core_peak_power_w(node: TechNode, core_type: CoreType) -> float:
    """Peak per-core power (busy dynamic + leakage) at *node*'s nominal."""
    # Deferred import: repro.energy.core_power derives its defaults from
    # repro.tech.nodes, so a top-level import here would be circular.
    from repro.energy.core_power import CorePowerModel, CorePowerParams

    params = CorePowerParams.from_tech(node, core_type)
    model = CorePowerModel(params)
    nominal = params.nominal
    return model.dynamic_power_w(nominal, 1.0) + model.leakage_power_w(nominal)


def _cores_per_island(mix: CoreMix, num_cores: int) -> int:
    """Cores on each of *mix*'s islands of a *num_cores* die."""
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if num_cores % mix.num_islands:
        raise ValueError(
            f"{num_cores} cores do not split evenly over "
            f"{mix.num_islands} islands (mix {mix.label!r})"
        )
    return num_cores // mix.num_islands


def _per_core_powers(
    node: TechNode, mix: CoreMix, num_cores: int
) -> List[float]:
    """One peak-power entry per core, island-major."""
    per_island = _cores_per_island(mix, num_cores)
    powers = []
    for name in mix.types:
        powers.extend([core_peak_power_w(node, get_core_type(name))] * per_island)
    return powers


def chip_peak_power_w(node: TechNode, mix: CoreMix, num_cores: int) -> float:
    """Whole-die peak power with every core busy at nominal V/F, summed
    per island (``cores per island x core peak``, island by island).

    :func:`repro.power.frontier.chip_peak_power_w`, the cap sweeps' and
    the cluster's estimate, is this sum for a die's islands."""
    per_island = _cores_per_island(mix, num_cores)
    return sum(
        per_island * core_peak_power_w(node, get_core_type(name))
        for name in mix.types
    )


def active_core_ceiling(
    cap_w: float, node: TechNode, mix: CoreMix, num_cores: int
) -> int:
    """Most cores that can run at nominal under *cap_w*, cheapest first.

    Activating the lowest-power cores first makes the ceiling the
    physical maximum -- any other activation order fits at most as many
    cores.  A cap at or below zero leaves the whole die dark.
    """
    if cap_w <= 0.0:
        return 0
    budget = float(cap_w)
    # Relative tolerance so a cap set exactly at the chip peak lights the
    # whole die regardless of summation order (float rounding differs
    # between the greedy partial sums and one flat sum()).
    slack = budget * 1e-9
    total = 0.0
    active = 0
    for power in sorted(_per_core_powers(node, mix, num_cores)):
        if total + power > budget + slack:
            break
        total += power
        active += 1
    return active


def dark_fraction(
    cap_w: float, node: TechNode, mix: CoreMix, num_cores: int
) -> float:
    """Fraction of the die the cap forces dark at nominal V/F."""
    ceiling = active_core_ceiling(cap_w, node, mix, num_cores)
    return 1.0 - ceiling / num_cores


def throughput_proxy(
    cap_w: float, node: TechNode, mix: CoreMix, num_cores: int
) -> float:
    """Aggregate throughput of the capped active set, in units of one
    65 nm out-of-order core at its nominal clock.

    The cheapest-first activation also happens to favour in-order cores,
    whose perf/W leads -- which is exactly the dark-silicon argument for
    heterogeneity that the frontier sweep quantifies.
    """
    ceiling = active_core_ceiling(cap_w, node, mix, num_cores)
    clock_ratio = node.frequency_nominal_hz / (BASE_FREQ_GHZ * GHZ)
    pairs = sorted(
        zip(
            _per_core_powers(node, mix, num_cores),
            (
                get_core_type(name).perf_scale
                for name in mix.types
                for _ in range(num_cores // mix.num_islands)
            ),
        )
    )
    return sum(perf for _, perf in pairs[:ceiling]) * clock_ratio


def budget_row(
    cap_w: float,
    node: TechNode,
    mix: CoreMix,
    num_cores: int,
) -> Dict:
    """One frontier table row for (node, mix) at *cap_w*."""
    ceiling = active_core_ceiling(cap_w, node, mix, num_cores)
    return {
        "node": node.name,
        "variant": node.variant,
        "mix": mix.label,
        "cap_w": float(cap_w),
        "chip_peak_w": chip_peak_power_w(node, mix, num_cores),
        "active_cores": ceiling,
        "dark_fraction": 1.0 - ceiling / num_cores,
        "throughput": throughput_proxy(cap_w, node, mix, num_cores),
    }


def frontier(
    nodes: Sequence[Union[int, str, TechNode]],
    mixes: Sequence[Union[str, CoreMix]],
    caps_w: Iterable[float],
    num_cores: int = 64,
    num_islands: int = 4,
    variant: str = "itrs",
) -> List[Dict]:
    """The dark-silicon frontier over nodes x mixes x caps.

    Row order is node-major (all mixes and caps of the first node, then
    the second, ...), matching how the report section groups the tables.
    """
    rows = []
    for node in nodes:
        if not isinstance(node, TechNode):
            node = get_node(node, variant)
        for mix in mixes:
            if not isinstance(mix, CoreMix):
                mix = resolve_mix(mix, num_islands)
            for cap in caps_w:
                rows.append(budget_row(cap, node, mix, num_cores))
    return rows
