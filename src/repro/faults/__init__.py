"""Deterministic fault injection and the system's fixed reactions.

``repro.faults`` models what real VFI silicon does when it degrades:
cores die, stragglers slow, power caps throttle islands down the DVFS
ladder, wires break, and wireless channels drop out.  A
:class:`FaultPlan` declares *what* breaks and when; the
:class:`FaultEngine` applies it to one
:class:`repro.sim.system.SystemSimulator` run, makes the surviving
system's one set of reactions (Eq. (3) caps re-derived on the degraded
clocks, the master-island shield, rerouting around lost links, ring
substitution for dead workers) and accounts for the damage in a
:class:`FaultImpact`.

The determinism contract: the same plan on the same platform and trace
produces bit-identical results and byte-identical telemetry exports, and
a run with no plan (or an empty one) is bit-for-bit the unfaulted
simulator.
"""

from repro.faults.engine import FaultEngine
from repro.faults.impact import FaultImpact
from repro.faults.scenarios import SCENARIOS, preset_plan
from repro.faults.spec import (
    FaultInjectionError,
    FaultKind,
    FaultPlan,
    FaultSpec,
    canonical_plan_json,
)

__all__ = [
    "FaultEngine",
    "FaultImpact",
    "FaultInjectionError",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "SCENARIOS",
    "canonical_plan_json",
    "preset_plan",
]
