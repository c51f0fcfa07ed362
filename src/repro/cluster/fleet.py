"""The simulated chip fleet a cluster run schedules onto.

A :class:`ChipSpec` describes one VFI chip in the fleet: die size,
which simulated configuration it represents (``vfi2_winoc`` by default
-- the paper's best system), and optionally a
:class:`repro.faults.FaultPlan` that degrades every job the chip runs
(the fault axis composing with the cluster layer).  A :class:`Fleet`
is an ordered collection of chips plus the shared ingest interconnect
that charges transfer time for non-resident datasets.

Specs are frozen and canonical so a fleet round-trips through the run
record's canonical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.experiment import NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC
from repro.core.geometry import DieGeometry
from repro.faults import FaultPlan, canonical_plan_json
from repro.orchestrator.spec import WINOC_METHODOLOGIES
from repro.power.spec import PowerCapSpec, canonical_cap_json
from repro.tech.spec import TechSpec, canonical_tech_json, normalize_tech
from repro.utils.jsonutil import to_builtin

#: Configurations a chip can embody (one simulated system per chip).
CHIP_CONFIGS = (NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC)


@dataclass(frozen=True)
class ChipSpec:
    """One simulated chip in the fleet."""

    chip_id: int
    num_workers: int = 16
    config: str = VFI2_WINOC
    winoc_methodology: str = "max_wireless"
    #: Canonical fault-plan JSON degrading this chip, or ``None``.
    #: Accepts a FaultPlan / JSON text at construction (like StudySpec).
    fault_plan: Optional[str] = None
    #: Canonical tech JSON (node x core mix), or ``None`` for the paper's
    #: 65 nm homogeneous default.  Accepts a TechSpec / JSON text.
    tech: Optional[str] = None
    #: Canonical power-cap JSON enforced on every job this chip runs, or
    #: ``None`` for an uncapped chip.  Accepts a PowerCapSpec / JSON
    #: text / bare watts at construction (like StudySpec).
    power_cap: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "chip_id", int(self.chip_id))
        object.__setattr__(self, "num_workers", int(self.num_workers))
        object.__setattr__(
            self, "fault_plan", canonical_plan_json(self.fault_plan)
        )
        object.__setattr__(self, "tech", canonical_tech_json(self.tech))
        object.__setattr__(
            self, "power_cap", canonical_cap_json(self.power_cap)
        )
        if self.chip_id < 0:
            raise ValueError(f"chip_id must be >= 0, got {self.chip_id}")
        if self.config not in CHIP_CONFIGS:
            raise ValueError(
                f"config must be one of {CHIP_CONFIGS}, got {self.config!r}"
            )
        if self.winoc_methodology not in WINOC_METHODOLOGIES:
            raise ValueError(
                f"winoc_methodology must be one of {WINOC_METHODOLOGIES}, "
                f"got {self.winoc_methodology!r}"
            )
        try:
            DieGeometry.for_cores(self.num_workers)
        except ValueError as exc:
            raise ValueError(
                f"chip {self.chip_id}: num_workers {self.num_workers!r} "
                f"does not resolve to a die geometry: {exc}"
            ) from None

    # ------------------------------------------------------------------ #

    @property
    def needs_vfi1(self) -> bool:
        """Whether this chip's study must simulate the VFI 1 system."""
        return self.config == VFI1_MESH

    @property
    def class_key(self) -> Tuple:
        """Chips of the same class resolve a job to the same StudySpec."""
        return (
            self.num_workers, self.config, self.winoc_methodology,
            self.fault_plan, self.tech, self.power_cap,
        )

    def plan(self) -> Optional[FaultPlan]:
        if self.fault_plan is None:
            return None
        return FaultPlan.from_json(self.fault_plan)

    def tech_spec(self) -> TechSpec:
        """The decoded tech spec (``TechSpec()`` for the paper default)."""
        return normalize_tech(self.tech)

    def cap(self) -> Optional[PowerCapSpec]:
        """The decoded power cap, or ``None`` for an uncapped chip."""
        if self.power_cap is None:
            return None
        return PowerCapSpec.from_json(self.power_cap)

    @property
    def node_nm(self) -> int:
        """Feature size of the chip's technology node in nanometres
        (65 for the paper default) -- the tech-aware routing key."""
        return self.tech_spec().tech_node().nm

    @property
    def core_class(self) -> str:
        """The chip's core-mix name (``"ooo"`` homogeneous default,
        ``"big_little"``/``"io"`` presets, ``"mixed"`` for explicit
        per-island tuples)."""
        cores = self.tech_spec().cores
        return cores if isinstance(cores, str) else "mixed"

    @property
    def is_efficiency_class(self) -> bool:
        """Whether the chip trades peak speed for efficiency (any core
        mix other than the homogeneous out-of-order default)."""
        return self.core_class != "ooo"

    @property
    def label(self) -> str:
        parts = [f"chip{self.chip_id}", f"{self.num_workers}c", self.config]
        if self.fault_plan is not None:
            plan = self.plan()
            parts.append(f"faults={plan.name or 'plan'}({len(plan)})")
        if self.tech is not None:
            parts.append(f"tech={self.tech_spec().label}")
        if self.power_cap is not None:
            parts.append(f"cap={self.cap().label}")
        return " ".join(parts)

    def to_dict(self) -> Dict:
        return {
            "chip_id": self.chip_id,
            "num_workers": self.num_workers,
            "config": self.config,
            "winoc_methodology": self.winoc_methodology,
            "fault_plan": self.fault_plan,
            "tech": self.tech,
            "power_cap": self.power_cap,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ChipSpec":
        return cls(**to_builtin(dict(data)))


@dataclass(frozen=True)
class Fleet:
    """An ordered set of chips behind one ingest interconnect."""

    chips: Tuple[ChipSpec, ...]
    #: Shared ingest bandwidth charged when staging non-resident inputs.
    interconnect_gbps: float = 1.0
    #: Fleet-level power budget (watts) the ``power_aware`` scheduler
    #: keeps the concurrently-busy chips under, or ``None`` (unbounded).
    power_budget_w: Optional[float] = None

    def __post_init__(self) -> None:
        chips = tuple(
            sorted(self.chips, key=lambda c: c.chip_id)
        )
        object.__setattr__(self, "chips", chips)
        object.__setattr__(
            self, "interconnect_gbps", float(self.interconnect_gbps)
        )
        if self.power_budget_w is not None:
            object.__setattr__(
                self, "power_budget_w", float(self.power_budget_w)
            )
        if not chips:
            raise ValueError("fleet must contain at least one chip")
        ids = [chip.chip_id for chip in chips]
        if len(set(ids)) != len(ids):
            raise ValueError("chip ids must be unique")
        if self.interconnect_gbps <= 0.0:
            raise ValueError(
                f"interconnect_gbps must be > 0, got {self.interconnect_gbps}"
            )
        if self.power_budget_w is not None and self.power_budget_w <= 0.0:
            raise ValueError(
                f"power_budget_w must be > 0, got {self.power_budget_w}"
            )

    def __len__(self) -> int:
        return len(self.chips)

    def __iter__(self):
        return iter(self.chips)

    def chip(self, chip_id: int) -> ChipSpec:
        for chip in self.chips:
            if chip.chip_id == chip_id:
                return chip
        raise KeyError(f"no chip {chip_id} in fleet")

    def transfer_s(self, input_mb: float) -> float:
        """Staging time for *input_mb* over the ingest interconnect."""
        return float(input_mb) * 8e6 / (self.interconnect_gbps * 1e9)

    def to_dict(self) -> Dict:
        out = {
            "chips": [chip.to_dict() for chip in self.chips],
            "interconnect_gbps": self.interconnect_gbps,
        }
        if self.power_budget_w is not None:
            out["power_budget_w"] = self.power_budget_w
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "Fleet":
        # Each chip is normalized once by ChipSpec.from_dict; the two
        # scalars are coerced by __post_init__.
        return cls(
            chips=tuple(ChipSpec.from_dict(c) for c in data["chips"]),
            interconnect_gbps=data.get("interconnect_gbps", 1.0),
            power_budget_w=data.get("power_budget_w"),
        )


def fleet_for(
    num_chips: int,
    num_workers: int = 16,
    config: str = VFI2_WINOC,
    interconnect_gbps: float = 1.0,
    fault_plans: Union[None, Sequence[Union[None, str, FaultPlan]]] = None,
    tech: Union[None, str, TechSpec] = None,
    power_caps: Union[
        None, Sequence[Union[None, str, float, PowerCapSpec]]
    ] = None,
    power_budget_w: Optional[float] = None,
) -> Fleet:
    """Build a homogeneous fleet (optionally with per-chip fault plans).

    *fault_plans*, when given, must have one entry per chip (``None``
    entries leave that chip clean) -- this is how a cluster scenario
    degrades part of the fleet while the rest serves at full speed.
    *tech* applies one technology configuration to every chip; build the
    fleet by hand (or with :func:`hetero_fleet`) for per-chip nodes.
    *power_caps* mirrors *fault_plans*: one entry per chip (``None``
    entries leave that chip uncapped; bare numbers are chip-level caps
    in watts), which is how a scenario runs a power-tiered fleet.
    *power_budget_w* is the fleet-level budget the ``power_aware``
    scheduler enforces over concurrently-busy chips.
    """
    if num_chips < 1:
        raise ValueError(f"num_chips must be >= 1, got {num_chips}")
    if fault_plans is not None and len(fault_plans) != num_chips:
        raise ValueError(
            f"fault_plans must have {num_chips} entries, got {len(fault_plans)}"
        )
    if power_caps is not None and len(power_caps) != num_chips:
        raise ValueError(
            f"power_caps must have {num_chips} entries, got {len(power_caps)}"
        )
    chips = []
    for chip_id in range(num_chips):
        plan = fault_plans[chip_id] if fault_plans is not None else None
        cap = power_caps[chip_id] if power_caps is not None else None
        chips.append(
            ChipSpec(
                chip_id=chip_id,
                num_workers=num_workers,
                config=config,
                fault_plan=plan,
                tech=tech,
                power_cap=cap,
            )
        )
    return Fleet(
        chips=tuple(chips),
        interconnect_gbps=interconnect_gbps,
        power_budget_w=power_budget_w,
    )


def hetero_fleet(
    num_chips: int = 4,
    config: str = VFI2_WINOC,
    interconnect_gbps: float = 1.0,
) -> Fleet:
    """Heterogeneous reference fleet: mixed die sizes *and* tech nodes.

    Chips cycle through four classes -- the paper's 16-core 65 nm chip,
    a 64-core 45 nm shrink, a 16-core 32 nm big.LITTLE part and a
    64-core 22 nm in-order throughput part -- so a single fleet
    exercises every axis the scheduler can trade against: die size, node
    and core mix.  Chips of the same class still deduplicate to one
    study per job via :attr:`ChipSpec.class_key`.
    """
    classes = (
        (16, None),
        (64, TechSpec(node="45nm")),
        (16, TechSpec(node="32nm", cores="big_little")),
        (64, TechSpec(node="22nm", cores="io")),
    )
    if num_chips < 1:
        raise ValueError(f"num_chips must be >= 1, got {num_chips}")
    chips = []
    for chip_id in range(num_chips):
        num_workers, tech = classes[chip_id % len(classes)]
        chips.append(
            ChipSpec(
                chip_id=chip_id,
                num_workers=num_workers,
                config=config,
                tech=tech,
            )
        )
    return Fleet(chips=tuple(chips), interconnect_gbps=interconnect_gbps)
