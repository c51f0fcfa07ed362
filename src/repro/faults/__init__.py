"""Deterministic fault injection and resilience policies.

``repro.faults`` models what real VFI silicon does when it degrades:
cores die, stragglers slow, power caps throttle islands down the DVFS
ladder, wires break, and wireless channels drop out.  A
:class:`FaultPlan` declares *what* breaks and when (or samples it from a
seeded generator); a :class:`ResiliencePolicy` declares what the
surviving system does about it; the :class:`FaultEngine` applies both to
one :class:`repro.sim.system.SystemSimulator` run and accounts for the
damage in a :class:`FaultImpact`.

The determinism contract: the same plan on the same platform and trace
produces bit-identical results and byte-identical telemetry exports, and
a run with no plan (or an empty one) is bit-for-bit the unfaulted
simulator.
"""

from repro.faults.engine import FaultEngine
from repro.faults.impact import FaultImpact
from repro.faults.policy import ResiliencePolicy
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
    "ResiliencePolicy",
    "SCENARIOS",
    "canonical_plan_json",
    "preset_plan",
]
