"""Declarative experiment units and campaign grids.

A :class:`StudySpec` names one run of the full paper pipeline --
:func:`repro.core.experiment.run_app_study` with concrete arguments --
in canonical form: app aliases are resolved, numeric fields are
normalized to builtin types, and invalid combinations are rejected at
construction time rather than minutes into a campaign.  Specs are
frozen, hashable and order-insensitively comparable, so they can key
dictionaries, de-duplicate grids and address the on-disk result cache.

:func:`expand_grid` turns a campaign description (lists of apps, scales,
seeds, ...) into the cross-product list of specs, in a deterministic
app-major order with duplicates removed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.apps.registry import canonical_app_name
from repro.core.geometry import DieGeometry
from repro.faults import FaultPlan
from repro.power.spec import PowerCapSpec, canonical_cap_json
from repro.tech.spec import TechSpec, canonical_tech_json

#: Bump whenever the serialized study document or the pipeline semantics
#: change: a new version invalidates every previously cached result.
#: v2: specs grew a ``fault_plan`` axis and study documents may carry a
#: ``faults`` impact section.
#: v3: specs grew a ``tech`` axis (technology node x core mix).
#: v4: specs grew a ``power_cap`` axis and study documents may carry a
#: ``power`` cap-impact section.
#: v5: cache files store the study document's large float arrays packed
#: as base64 little-endian float64 (``orchestrator.cache.PACKED_PATHS``);
#: the study document itself is unchanged.
CACHE_SCHEMA_VERSION = 5

WINOC_METHODOLOGIES = ("max_wireless", "min_hop")


def _canonical_plan_json(
    plan: Union[None, str, FaultPlan]
) -> Optional[str]:
    """Normalize a fault-plan field to canonical JSON (or ``None``).

    Accepts a :class:`FaultPlan`, a JSON string (re-canonicalized through
    a round trip, so key order and whitespace never split the cache), or
    ``None``.  An empty plan collapses to ``None`` -- the same rule the
    simulator applies, so the fault-free unit has exactly one identity.
    """
    if plan is None:
        return None
    if isinstance(plan, str):
        plan = FaultPlan.from_json(plan)
    if not isinstance(plan, FaultPlan):
        raise TypeError(
            f"fault_plan must be None, JSON text or FaultPlan, got {plan!r}"
        )
    if len(plan) == 0:
        return None
    return plan.to_json()


@dataclass(frozen=True)
class StudySpec:
    """One hashable, canonicalized unit of experiment work."""

    app: str
    scale: float = 1.0
    seed: int = 7
    num_workers: int = 64
    winoc_methodology: str = "max_wireless"
    include_vfi1: bool = True
    #: Canonical JSON encoding of a :class:`repro.faults.FaultPlan`, or
    #: ``None`` for a fault-free unit.  Stored as a string so the spec
    #: stays hashable and its cache key is a pure function of builtins;
    #: construction also accepts a ``FaultPlan`` and canonicalizes it.
    fault_plan: Optional[str] = None
    #: Canonical JSON encoding of a :class:`repro.tech.TechSpec`, or
    #: ``None`` for the paper's default technology (65 nm, homogeneous
    #: out-of-order).  Same carrying convention as ``fault_plan``; the
    #: default spec collapses to ``None`` so the paper unit keeps exactly
    #: one identity.
    tech: Optional[str] = None
    #: Canonical JSON encoding of a
    #: :class:`repro.power.PowerCapSpec`, or ``None`` for an uncapped
    #: unit.  Same carrying convention as the other axes (the unbounded
    #: spec collapses to ``None``); construction also accepts a bare
    #: number as a chip-level cap in watts.
    power_cap: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "app", canonical_app_name(self.app))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "num_workers", int(self.num_workers))
        object.__setattr__(self, "include_vfi1", bool(self.include_vfi1))
        object.__setattr__(
            self, "fault_plan", _canonical_plan_json(self.fault_plan)
        )
        object.__setattr__(self, "tech", canonical_tech_json(self.tech))
        object.__setattr__(
            self, "power_cap", canonical_cap_json(self.power_cap)
        )
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale!r}")
        try:
            DieGeometry.for_cores(self.num_workers)
        except ValueError as exc:
            raise ValueError(
                f"num_workers {self.num_workers!r} does not resolve to a "
                f"die geometry: {exc}"
            ) from None
        if self.winoc_methodology not in WINOC_METHODOLOGIES:
            raise ValueError(
                f"winoc_methodology must be one of {WINOC_METHODOLOGIES}, "
                f"got {self.winoc_methodology!r}"
            )

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict:
        """Canonical field mapping, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict) -> "StudySpec":
        return cls(**data)

    def run_kwargs(self) -> Dict:
        """Keyword arguments for :func:`repro.core.experiment.run_app_study`."""
        kwargs = self.to_dict()
        kwargs["app_name"] = kwargs.pop("app")
        if kwargs["fault_plan"] is not None:
            kwargs["fault_plan"] = FaultPlan.from_json(kwargs["fault_plan"])
        if kwargs["tech"] is not None:
            kwargs["tech"] = TechSpec.from_json(kwargs["tech"])
        if kwargs["power_cap"] is not None:
            kwargs["power_cap"] = PowerCapSpec.from_json(kwargs["power_cap"])
        return kwargs

    def plan(self) -> Optional[FaultPlan]:
        """The decoded fault plan, or ``None`` for a fault-free unit."""
        if self.fault_plan is None:
            return None
        return FaultPlan.from_json(self.fault_plan)

    def tech_spec(self) -> Optional[TechSpec]:
        """The decoded tech spec, or ``None`` for the paper default."""
        if self.tech is None:
            return None
        return TechSpec.from_json(self.tech)

    def cap(self) -> Optional[PowerCapSpec]:
        """The decoded power cap, or ``None`` for an uncapped unit."""
        if self.power_cap is None:
            return None
        return PowerCapSpec.from_json(self.power_cap)

    def cache_key(self, schema_version: int = CACHE_SCHEMA_VERSION) -> str:
        """Stable content address of this spec.

        The key is a SHA-256 over the canonical JSON encoding of the
        fields plus the cache schema version.  ``json.dumps`` renders
        floats via ``repr``, which round-trips exactly, so the same spec
        hashes identically in every process and on every platform; any
        field change or schema bump yields a different key.
        """
        payload = {"schema_version": int(schema_version), "spec": self.to_dict()}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines/manifests."""
        parts = [
            self.app,
            f"scale={self.scale:g}",
            f"seed={self.seed}",
            f"workers={self.num_workers}",
        ]
        if self.winoc_methodology != "max_wireless":
            parts.append(self.winoc_methodology)
        if not self.include_vfi1:
            parts.append("no-vfi1")
        if self.fault_plan is not None:
            plan = self.plan()
            name = plan.name or "plan"
            parts.append(f"faults={name}({len(plan)})")
        if self.tech is not None:
            parts.append(f"tech={self.tech_spec().label}")
        if self.power_cap is not None:
            parts.append(f"cap={self.cap().label}")
        return " ".join(parts)

    def run(self):
        """Execute this unit in-process (memoized per process)."""
        from repro.core.experiment import run_app_study

        return run_app_study(**self.run_kwargs())


def expand_grid(
    apps: Sequence[str],
    scales: Iterable[float] = (1.0,),
    seeds: Iterable[int] = (7,),
    num_workers: Iterable[int] = (64,),
    winoc_methodologies: Iterable[str] = ("max_wireless",),
    include_vfi1: Iterable[bool] = (True,),
    fault_plans: Iterable[Union[None, str, FaultPlan]] = (None,),
    tech: Iterable[Union[None, str, TechSpec]] = (None,),
    power_caps: Iterable[Union[None, str, float, PowerCapSpec]] = (None,),
) -> List[StudySpec]:
    """Cross-product a campaign grid into de-duplicated specs.

    The expansion order is deterministic and app-major (all variations of
    the first app, then the second, ...), matching how the paper's
    figures group their series.  Canonicalization happens inside
    :class:`StudySpec`, so ``("hist", "histogram")`` collapses to one unit.
    The ``fault_plans`` axis is the resilience sweep: pairing ``(None,
    plan)`` runs every configuration clean and degraded, which is how the
    degradation report gets its baseline.  The ``tech`` axis sweeps
    technology configurations (node x core mix); ``None`` entries are
    the paper's 65 nm homogeneous default.  The ``power_caps`` axis
    sweeps runtime power budgets (``None`` = uncapped; bare numbers are
    chip-level caps in watts), which is how cap-sweep frontiers pair
    every capped unit with its uncapped baseline.
    """
    if not apps:
        raise ValueError("apps must be non-empty")
    specs: List[StudySpec] = []
    seen = set()
    for combo in itertools.product(
        apps, scales, seeds, num_workers, winoc_methodologies,
        include_vfi1, fault_plans, tech, power_caps,
    ):
        spec = StudySpec(*combo)
        if spec not in seen:
            seen.add(spec)
            specs.append(spec)
    return specs
