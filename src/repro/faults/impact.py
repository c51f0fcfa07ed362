"""Degradation accounting for one fault-injected simulation run.

:class:`FaultImpact` is the plain-data record a fault-injected
:class:`repro.sim.system.SystemSimulator` run attaches to its
:class:`repro.sim.stats.SimulationResult`.  It carries no simulator
state -- only builtin types -- so it serializes to JSON alongside the
result and survives the orchestrator's on-disk cache round trip.

This module must stay import-light (no numpy, no simulator imports):
``repro.sim.stats`` imports it, and the fault engine lives one layer
above in :mod:`repro.faults.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class FaultImpact:
    """What a fault plan did to one simulation run."""

    #: Events that actually applied to the platform, in activation order
    #: (each entry is a ``FaultSpec.to_dict()`` payload).
    events_applied: List[Dict] = field(default_factory=list)
    #: Events skipped at activation: they named a resource the platform
    #: does not have (e.g. a channel loss on a pure-wire mesh), or their
    #: link removal would disconnect the fabric.
    events_skipped: int = 0
    #: Workers whose cores failed during the run, in failure order.
    failed_workers: List[int] = field(default_factory=list)
    #: Task executions killed mid-run and re-executed elsewhere/later.
    reexecuted_tasks: int = 0
    #: Barrier-phase tasks that ran on a substitute for a dead home worker.
    substituted_tasks: int = 0
    #: Core-seconds burnt on executions that never completed.
    lost_busy_s: float = 0.0
    #: Islands with at least one throttle step applied.
    throttled_islands: List[int] = field(default_factory=list)
    #: Times the fault engine shielded a master island by moving its
    #: throttle steps onto another island (Sec. 4.2 analogue).
    bottleneck_reassignments: int = 0

    def to_dict(self) -> Dict:
        """JSON-compatible encoding (builtins only)."""
        return {
            "events_applied": [dict(e) for e in self.events_applied],
            "events_skipped": int(self.events_skipped),
            "failed_workers": [int(w) for w in self.failed_workers],
            "reexecuted_tasks": int(self.reexecuted_tasks),
            "substituted_tasks": int(self.substituted_tasks),
            "lost_busy_s": float(self.lost_busy_s),
            "throttled_islands": [int(i) for i in self.throttled_islands],
            "bottleneck_reassignments": int(self.bottleneck_reassignments),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultImpact":
        return cls(
            events_applied=[dict(e) for e in data.get("events_applied", [])],
            events_skipped=int(data.get("events_skipped", 0)),
            failed_workers=[int(w) for w in data.get("failed_workers", [])],
            reexecuted_tasks=int(data.get("reexecuted_tasks", 0)),
            substituted_tasks=int(data.get("substituted_tasks", 0)),
            lost_busy_s=float(data.get("lost_busy_s", 0.0)),
            throttled_islands=[int(i) for i in data.get("throttled_islands", [])],
            bottleneck_reassignments=int(data.get("bottleneck_reassignments", 0)),
        )
