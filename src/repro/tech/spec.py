"""The canonical technology-configuration unit: :class:`TechSpec`.

A TechSpec names one point of the technology design space -- node,
scaling variant, and per-island core mix -- in canonical, hashable,
JSON-round-trippable form, exactly like :class:`repro.faults.FaultPlan`
does for the fault axis.  The paper's configuration (65 nm, ITRS
variant, homogeneous out-of-order cores) is the default and collapses
to ``None`` wherever the spec is carried as an axis field
(:class:`repro.orchestrator.spec.StudySpec`,
:class:`repro.cluster.fleet.ChipSpec`), so the default study keeps
exactly one identity.  Every layer that uses a technology receives a
``TechSpec``: the default one derives the paper platform bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple, Union

from repro.tech.cores import CoreMix, DEFAULT_CORE, resolve_mix
from repro.tech.nodes import (
    PAPER_NODE_NM,
    TechNode,
    VARIANTS,
    dvfs_ladder,
    get_node,
)
from repro.vfi.islands import VfPoint


@dataclass(frozen=True)
class TechSpec:
    """One technology configuration: node x variant x core mix."""

    node: str = f"{PAPER_NODE_NM}nm"
    variant: str = "itrs"
    #: A core-type name (homogeneous), a mix preset (``"big_little"``),
    #: or an explicit per-island tuple of core-type names.
    cores: Union[str, Tuple[str, ...]] = DEFAULT_CORE

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        node = get_node(self.node, self.variant)
        object.__setattr__(self, "node", node.name)
        # The 65 nm tables are the identity in both variants; collapsing
        # the variant keeps the paper node at exactly one cache identity.
        if node.is_paper_node:
            object.__setattr__(self, "variant", "itrs")
        cores = self.cores
        if not isinstance(cores, str):
            cores = tuple(str(name) for name in cores)
            if not cores:
                raise ValueError("cores sequence must be non-empty")
            if len(set(cores)) == 1:
                cores = cores[0]  # homogeneous tuples collapse to the name
        if isinstance(cores, str):
            resolve_mix(cores, 4)  # validate the name against the registry
        else:
            CoreMix(types=cores)
        object.__setattr__(self, "cores", cores)

    # ------------------------------------------------------------------ #

    @property
    def is_default(self) -> bool:
        """Is this the paper's 65 nm homogeneous OoO configuration?"""
        return (
            self.node == f"{PAPER_NODE_NM}nm"
            and self.variant == "itrs"
            and self.cores == DEFAULT_CORE
        )

    @property
    def label(self) -> str:
        cores = self.cores if isinstance(self.cores, str) else "+".join(self.cores)
        return f"{self.node}-{self.variant}/{cores}"

    def tech_node(self) -> TechNode:
        return get_node(self.node, self.variant)

    def ladder(self) -> Tuple[VfPoint, ...]:
        """This node's DVFS ladder (nominal last)."""
        return dvfs_ladder(self.tech_node())

    def mix_for(self, num_islands: int) -> CoreMix:
        """The concrete per-island core mix on a *num_islands* die."""
        return resolve_mix(self.cores, num_islands)

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict:
        cores = self.cores
        return {
            "node": self.node,
            "variant": self.variant,
            "cores": cores if isinstance(cores, str) else list(cores),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TechSpec":
        data = dict(data)
        cores = data.get("cores", DEFAULT_CORE)
        if isinstance(cores, list):
            data["cores"] = tuple(cores)
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "TechSpec":
        return cls.from_dict(json.loads(text))


def canonical_tech_json(
    tech: Union[None, str, TechSpec]
) -> Optional[str]:
    """Normalize a tech field to canonical JSON (or ``None``).

    Accepts a :class:`TechSpec`, a JSON string (re-canonicalized through
    a round trip, so key order and whitespace never split a cache), or
    ``None``.  The default spec collapses to ``None`` -- the paper
    configuration keeps exactly one identity, the same rule the fault
    axis applies to empty plans.
    """
    if tech is None:
        return None
    if isinstance(tech, str):
        tech = TechSpec.from_json(tech)
    if not isinstance(tech, TechSpec):
        raise TypeError(
            f"tech must be None, JSON text or TechSpec, got {tech!r}"
        )
    if tech.is_default:
        return None
    return tech.to_json()


@lru_cache(maxsize=64)
def normalize_tech(tech: Union[None, str, TechSpec]) -> TechSpec:
    """Decode a tech field to a :class:`TechSpec`; ``None`` names the
    paper's default configuration, ``TechSpec()``.

    Memoized: specs are frozen, and chips and studies decode the same
    few fields on every use.
    """
    text = canonical_tech_json(tech)
    if text is None:
        return TechSpec()
    return TechSpec.from_json(text)
