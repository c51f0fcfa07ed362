"""The fault engine: applies a :class:`FaultPlan` to a running simulation.

One :class:`FaultEngine` instance is owned by one
:class:`repro.sim.system.SystemSimulator` run.  The simulator asks it, at
every phase boundary, which pending events have become due
(:meth:`activate_due`) and then pulls the *effective* degraded view of
the platform from it:

* :meth:`effective_platform` -- the platform with failed links/channels
  removed (routes rebuilt via weighted Dijkstra -- XY routing cannot
  steer around holes) and throttled islands stepped down the DVFS
  ladder.  A throttle-only view keeps the base fabric (one build of
  the clock-free NoC tables, its own per-clock tables on top); a view
  that lost links gets the fabric of its degraded topology
  (:func:`repro.noc.fabric.fabric_for` keys fabrics by content).
* :attr:`slowdown` -- per-worker straggler divisors; the simulator
  divides the island clocks by them and re-derives the Eq. (3) stealing
  caps on the result (Sec. 4.3).
* :attr:`fail_time` -- per-worker absolute failure times (``inf`` for
  survivors), armed up front so the scheduler can kill executions that
  would cross a failure even before the boundary hook has run.

The engine also makes the run's fixed reactions: the bottleneck shield
(a throttle aimed at a master island is moved onto the fastest
non-master island, the fault-time analogue of the paper's Sec. 4.2
bottleneck reassignment), rerouting around failed links and lost
channels, and ring substitution for barrier-phase tasks whose home
worker is dead.

Everything is deterministic: events activate in canonical plan order,
ties break on fixed keys, and no call reads global random state.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.faults.impact import FaultImpact
from repro.faults.spec import (
    FaultInjectionError,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.noc.routing import build_routing_table
from repro.noc.wireless import channels_of
from repro.telemetry import get_tracer
from repro.vfi.islands import VfPoint, nearest_ladder_point

if TYPE_CHECKING:  # runtime import is deferred: sim.config imports the
    # faults leaf modules, so importing the platform here at module scope
    # would close a cycle through the package __init__.
    from repro.sim.platform import Platform


class FaultEngine:
    """Deterministic fault activation + fault reactions for one run."""

    def __init__(self, platform: Platform, plan: FaultPlan, tracer=None):
        self.base_platform = platform
        self.plan = plan
        self.tracer = tracer if tracer is not None else get_tracer()

        num_workers = platform.num_cores
        num_islands = platform.layout.num_clusters
        for event in plan.events:
            if event.kind in (FaultKind.CORE_FAILURE, FaultKind.CORE_SLOWDOWN):
                if event.target[0] >= num_workers:
                    raise ValueError(
                        f"{event.kind.value} targets worker {event.target[0]}, "
                        f"platform has {num_workers} workers"
                    )
            elif event.kind is FaultKind.ISLAND_THROTTLE:
                if event.target[0] >= num_islands:
                    raise ValueError(
                        f"throttle targets island {event.target[0]}, "
                        f"platform has {num_islands} islands"
                    )
            # Link/channel targets are checked leniently at activation:
            # plans are written against a platform family, and a mesh
            # simply has no channel to lose.

        #: Absolute failure time per worker (inf = survives the run).
        #: Armed up front from every CORE_FAILURE in the plan -- the map
        #: scheduler consults this while packing tasks, which may run
        #: ahead of the boundary-driven activation below.
        self.fail_time = np.full(num_workers, np.inf)
        for event in plan.events:
            if event.kind is FaultKind.CORE_FAILURE:
                victim = event.target[0]
                self.fail_time[victim] = min(
                    self.fail_time[victim], event.time_s
                )

        #: Per-worker straggler slowdown divisors (1.0 = nominal).
        self.slowdown = np.ones(num_workers)
        #: Accumulated ladder steps per throttled island.
        self.throttle_steps: Dict[int, int] = {}
        #: Keys of wireline/wireless links removed so far.
        self.removed_links: Set[FrozenSet[int]] = set()
        self.lost_channels: Set[int] = set()
        #: Workers that run lib-init (set by :meth:`begin`); the islands
        #: holding them are the shielded "master" islands.
        self.master_workers: Set[int] = set()

        self._pending: List[FaultSpec] = list(plan.events)
        self._applied: List[FaultSpec] = []
        self._skipped = 0
        self._bottleneck_reassignments = 0
        self._shielded_islands: Set[int] = set()
        self._reexecuted = 0
        self._substituted = 0
        self._lost_busy = 0.0
        self._failed_workers: List[int] = []

        self._base_link_keys = {
            link.key for link in platform.topology.links
        }
        #: Removed-link set -> (degraded topology, its routing).
        self._topo_cache: Dict[FrozenSet[FrozenSet[int]], Tuple] = {}
        self._platform_cache: Dict[Tuple, Platform] = {}

    # ------------------------------------------------------------------ #
    # activation
    # ------------------------------------------------------------------ #

    def begin(self, trace) -> None:
        """Learn which workers are masters (lib-init owners) from the
        trace, before the first phase runs."""
        self.master_workers = trace.master_workers

    def activate_due(self, now: float) -> Tuple[bool, bool]:
        """Apply every pending event with ``time_s <= now``.

        Returns ``(platform_dirty, freqs_dirty)``: whether the caller
        must refresh the effective platform (fabric or island V/F
        changed) and/or the effective worker-frequency map.
        """
        platform_dirty = False
        freqs_dirty = False
        while self._pending and self._pending[0].time_s <= now:
            event = self._pending.pop(0)
            applied, p_dirty, f_dirty = self._apply(event)
            platform_dirty |= p_dirty
            freqs_dirty |= f_dirty
            if applied:
                self._applied.append(event)
                if self.tracer.enabled:
                    self.tracer.span(
                        f"fault.{event.kind.value}",
                        event.time_s,
                        0.0,
                        cat="fault",
                        pid="faults",
                        tid=event.kind.value,
                    )
                    self.tracer.counter_add(
                        "faults.events_applied", 1.0, key=event.kind.value
                    )
            else:
                self._skipped += 1
                if self.tracer.enabled:
                    self.tracer.counter_add(
                        "faults.events_skipped", 1.0, key=event.kind.value
                    )
        return platform_dirty, freqs_dirty

    def _apply(self, event: FaultSpec) -> Tuple[bool, bool, bool]:
        """Apply one event; returns (applied, platform_dirty, freqs_dirty)."""
        if event.kind is FaultKind.CORE_FAILURE:
            self._failed_workers.append(event.target[0])
            # fail_time was armed at construction; the frequency map is
            # unchanged but caps must be rebuilt without the dead worker
            # contributing stolen work, so refresh the policy view.
            return True, False, True
        if event.kind is FaultKind.CORE_SLOWDOWN:
            self.slowdown[event.target[0]] *= event.magnitude
            return True, False, True
        if event.kind is FaultKind.ISLAND_THROTTLE:
            island = event.target[0]
            self.throttle_steps[island] = self.throttle_steps.get(
                island, 0
            ) + int(event.magnitude)
            return True, True, True
        if event.kind is FaultKind.LINK_FAILURE:
            key = frozenset(event.target)
            if key not in self._base_link_keys or key in self.removed_links:
                return False, False, False
            self.removed_links.add(key)
            return True, True, False
        if event.kind is FaultKind.CHANNEL_LOSS:
            channel = event.target[0]
            channels = channels_of(self.base_platform.topology)
            if channel not in channels or channel in self.lost_channels:
                return False, False, False
            self.lost_channels.add(channel)
            for link in self.base_platform.topology.wireless_links():
                if link.channel == channel:
                    self.removed_links.add(link.key)
            return True, True, False
        raise AssertionError(f"unhandled fault kind {event.kind!r}")

    # ------------------------------------------------------------------ #
    # effective degraded views
    # ------------------------------------------------------------------ #

    def effective_vf_points(self) -> Tuple[VfPoint, ...]:
        """Island V/F after throttling and the master-island shield.

        Throttle steps landing on an island that contains master cores
        are moved onto the non-master island currently running at the
        highest V/F (lowest index on ties) -- the power cap is still
        honored somewhere, but never on the critical serial path.
        """
        base_points = list(self.base_platform.vf_points)
        steps = dict(self.throttle_steps)
        if steps:
            master_islands = {
                self.base_platform.island_of_worker(worker)
                for worker in self.master_workers
            }
            non_masters = [
                island
                for island in range(len(base_points))
                if island not in master_islands
            ]
            for island in sorted(steps):
                if island not in master_islands or steps[island] <= 0:
                    continue
                if not non_masters:
                    continue  # nowhere to shed the cap; throttle stands
                victim = max(
                    non_masters,
                    key=lambda i: (base_points[i], -i),
                )
                steps[victim] = steps.get(victim, 0) + steps[island]
                steps[island] = 0
                if island not in self._shielded_islands:
                    self._shielded_islands.add(island)
                    self._bottleneck_reassignments += 1
                    if self.tracer.enabled:
                        self.tracer.counter_add(
                            "faults.bottleneck_reassignments", 1.0
                        )
        ladder = self.base_platform.dvfs_ladder
        points = []
        for island, point in enumerate(base_points):
            down = steps.get(island, 0)
            if down > 0:
                ladder_index = ladder.index(
                    nearest_ladder_point(point.frequency_hz, ladder)
                )
                point = ladder[max(ladder_index - down, 0)]
            points.append(point)
        return tuple(points)

    def effective_platform(self) -> Platform:
        """The degraded platform: links removed, islands throttled.

        Returns the base platform object itself while nothing structural
        has changed, so the no-fault prefix of a run shares every cached
        table with a clean simulation.  Degraded platforms are cached per
        (removed-link set, V/F assignment); a throttle-only view shares
        the base fabric, a view that lost links gets its degraded
        topology's own (fabrics are keyed by content, so intact and
        degraded tables never mix).
        """
        vf_points = self.effective_vf_points()
        if not self.removed_links and vf_points == tuple(
            self.base_platform.vf_points
        ):
            return self.base_platform
        cache_key = (frozenset(self.removed_links), vf_points)
        platform = self._platform_cache.get(cache_key)
        if platform is not None:
            return platform

        base = self.base_platform
        topology, routing = base.topology, base.routing
        if self.removed_links:
            topo_key = frozenset(self.removed_links)
            if topo_key not in self._topo_cache:
                topology = base.topology.without_links(
                    self.removed_links,
                    name=f"{base.topology.name}-degraded",
                )
                if not topology.is_connected():
                    raise FaultInjectionError(
                        f"removing links "
                        f"{sorted(sorted(k) for k in self.removed_links)} "
                        f"disconnects topology {base.topology.name!r}"
                    )
                # XY routing cannot steer around holes; degraded fabrics
                # always route via the weighted shortest-path table.
                self._topo_cache[topo_key] = (
                    topology, build_routing_table(topology)
                )
            topology, routing = self._topo_cache[topo_key]

        platform = replace(
            base,
            name=f"{base.name}+degraded",
            vf_points=list(vf_points),
            topology=topology,
            routing=routing,
        )
        self._platform_cache[cache_key] = platform
        return platform

    # ------------------------------------------------------------------ #
    # substitution + accounting
    # ------------------------------------------------------------------ #

    def substitute_for(self, worker: int, now: float) -> Optional[int]:
        """Pick a surviving stand-in for a barrier-phase task whose home
        worker is dead at *now*: walk the worker ring upward from the
        victim, wrapping once.  Returns ``None`` when nobody survives."""
        num_workers = len(self.fail_time)
        for offset in range(1, num_workers + 1):
            candidate = (worker + offset) % num_workers
            if self.fail_time[candidate] > now:
                return candidate
        return None

    def note_recovery(
        self,
        reexecutions: int,
        substitutions: int,
        lost: List[Tuple[int, float, float, int]],
    ) -> None:
        """Fold one committed phase's recovery bookkeeping into the
        impact record (and telemetry): *lost* entries are
        ``(worker, start_s, duration_s, task_id)`` intervals burnt on
        executions that a core failure killed."""
        self._reexecuted += int(reexecutions)
        self._substituted += int(substitutions)
        for worker, start_s, duration_s, task_id in lost:
            self._lost_busy += float(duration_s)
            if self.tracer.enabled:
                self.tracer.span(
                    f"lost/task{task_id}",
                    start_s,
                    duration_s,
                    cat="fault",
                    pid="faults",
                    tid=f"worker{worker}",
                )
        if self.tracer.enabled:
            if reexecutions:
                self.tracer.counter_add(
                    "faults.reexecuted_tasks", float(reexecutions)
                )
            if substitutions:
                self.tracer.counter_add(
                    "faults.substituted_tasks", float(substitutions)
                )

    def impact(self) -> FaultImpact:
        """Snapshot of the degradation accounting so far."""
        return FaultImpact(
            events_applied=[event.to_dict() for event in self._applied],
            events_skipped=self._skipped,
            failed_workers=list(self._failed_workers),
            reexecuted_tasks=self._reexecuted,
            substituted_tasks=self._substituted,
            lost_busy_s=self._lost_busy,
            throttled_islands=sorted(
                island
                for island, steps in self.throttle_steps.items()
                if steps > 0
            ),
            bottleneck_reassignments=self._bottleneck_reassignments,
        )
