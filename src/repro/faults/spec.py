"""Declarative fault events and deterministic fault plans.

A :class:`FaultSpec` names one timed degradation event; a
:class:`FaultPlan` is a canonically ordered, frozen, hashable collection
of them.  Plans are fully deterministic: the same plan replayed on the
same seed produces byte-identical simulator traces, and a plan
round-trips through canonical JSON (sorted keys, no whitespace) so the
orchestrator can hash it into cache keys.

Five event kinds cover the degradation modes a VFI platform sees in the
field:

* ``CORE_FAILURE`` -- the worker's core dies permanently at ``time_s``;
  any execution in flight is killed and re-executed elsewhere.
* ``CORE_SLOWDOWN`` -- a straggler: the worker's effective frequency is
  divided by ``magnitude`` (> 1) from ``time_s`` on.
* ``ISLAND_THROTTLE`` -- power-cap emulation: the island drops
  ``magnitude`` steps down the DVFS ladder (V and f together, via the
  existing VFI V/F tables).
* ``LINK_FAILURE`` -- the wireline link ``(a, b)`` disappears; routes
  are rebuilt around the hole.
* ``CHANNEL_LOSS`` -- a wireless channel drops out; all of its links
  disappear and its flows fall back onto the wireline fabric.

Faults are permanent for the remainder of the run -- "recovery" is what
the :class:`repro.faults.engine.FaultEngine` and the simulator do in
response, never the fault healing itself.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.utils.validation import check_positive


class FaultInjectionError(RuntimeError):
    """A fault plan cannot be applied: no surviving worker is left to
    run a task.  (A link loss that would disconnect the fabric is not
    an error: the engine skips it.)"""


class FaultKind(enum.Enum):
    CORE_FAILURE = "core_failure"
    CORE_SLOWDOWN = "core_slowdown"
    ISLAND_THROTTLE = "island_throttle"
    LINK_FAILURE = "link_failure"
    CHANNEL_LOSS = "channel_loss"


#: Expected ``target`` arity per kind (worker / island / link endpoints /
#: channel index).
_TARGET_ARITY = {
    FaultKind.CORE_FAILURE: 1,
    FaultKind.CORE_SLOWDOWN: 1,
    FaultKind.ISLAND_THROTTLE: 1,
    FaultKind.LINK_FAILURE: 2,
    FaultKind.CHANNEL_LOSS: 1,
}


@dataclass(frozen=True)
class FaultSpec:
    """One timed degradation event.

    ``target`` identifies the victim resource: ``(worker,)`` for core
    events, ``(island,)`` for throttles, ``(a, b)`` for link failures,
    ``(channel,)`` for channel losses.  ``magnitude`` is the slowdown
    factor (> 1) for stragglers and the integer ladder-step count
    (>= 1) for throttles; other kinds ignore it.
    """

    kind: FaultKind
    time_s: float
    target: Tuple[int, ...]
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        object.__setattr__(self, "time_s", float(self.time_s))
        object.__setattr__(
            self, "target", tuple(int(t) for t in self.target)
        )
        object.__setattr__(self, "magnitude", float(self.magnitude))
        check_positive("time_s", self.time_s, allow_zero=True)
        arity = _TARGET_ARITY[self.kind]
        if len(self.target) != arity:
            raise ValueError(
                f"{self.kind.value} target must have {arity} element(s), "
                f"got {self.target!r}"
            )
        if any(t < 0 for t in self.target):
            raise ValueError(f"target ids must be >= 0, got {self.target!r}")
        if self.kind is FaultKind.CORE_SLOWDOWN and self.magnitude <= 1.0:
            raise ValueError(
                f"slowdown magnitude must be > 1, got {self.magnitude!r}"
            )
        if self.kind is FaultKind.ISLAND_THROTTLE:
            if self.magnitude < 1.0 or self.magnitude != int(self.magnitude):
                raise ValueError(
                    f"throttle magnitude must be an integer >= 1 (ladder "
                    f"steps), got {self.magnitude!r}"
                )
        if self.kind is FaultKind.LINK_FAILURE and self.target[0] == self.target[1]:
            raise ValueError(f"link failure targets a self-link: {self.target!r}")

    @property
    def sort_key(self) -> Tuple:
        """Canonical event ordering: time, then kind, target, magnitude."""
        return (self.time_s, self.kind.value, self.target, self.magnitude)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind.value,
            "time_s": float(self.time_s),
            "target": [int(t) for t in self.target],
            "magnitude": float(self.magnitude),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        return cls(
            kind=FaultKind(data["kind"]),
            time_s=float(data["time_s"]),
            target=tuple(int(t) for t in data["target"]),
            magnitude=float(data.get("magnitude", 1.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A canonically ordered, hashable set of fault events.

    The event tuple is sorted by :attr:`FaultSpec.sort_key` at
    construction, so two plans built from the same events in any order
    compare, hash and serialize identically.  ``seed`` is an optional
    tag recording the seed of whatever drew the events (documentation
    only -- replay uses the events, never the seed).
    """

    events: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        events = tuple(sorted(self.events, key=lambda e: e.sort_key))
        object.__setattr__(self, "events", events)
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------ #
    # canonical JSON
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict:
        out: Dict = {
            "name": self.name,
            "events": [event.to_dict() for event in self.events],
        }
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        return cls(
            events=tuple(
                FaultSpec.from_dict(entry) for entry in data.get("events", [])
            ),
            seed=data.get("seed"),
            name=str(data.get("name", "")),
        )

    def to_json(self) -> str:
        """Canonical encoding: sorted keys, no whitespace -- the exact
        bytes the orchestrator hashes into cache keys."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def canonical_plan_json(
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
