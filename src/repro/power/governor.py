"""The cap governor: enforces a :class:`PowerCapSpec` on a running run.

One :class:`CapGovernor` instance is owned by one
:class:`repro.sim.system.SystemSimulator` run.  The simulator polls it
at every phase boundary (the same hook shape as
:class:`repro.faults.engine.FaultEngine`): the governor estimates
per-island power from the platform's :class:`CorePowerModel` accounting
and the measured busy activity since the last poll, and decides a
per-island DVFS assignment that honors the caps:

* per-island caps throttle their island down the (tech-derived) ladder
  until the island budget is met;
* the chip-level cap then steps islands down
  **cheapest-throughput-loss-first** (loss = activity x cores x
  frequency drop x core-type performance scale), shielding master
  islands -- the islands holding lib-init owners -- exactly as PR 4's
  bottleneck reassignment does, falling back to masters only when no
  other island has ladder headroom;
* the assignment is recomputed from nominal at every boundary, so
  islands **re-raise automatically** when activity headroom returns.

Everything is deterministic: decisions are pure functions of the
(platform, cap, measured activity) triple, ties break on fixed keys,
and no call reads global random state.  With an unbounded spec no
governor is constructed at all, so uncapped runs take the exact legacy
code path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.power.impact import CapImpact
from repro.power.spec import PowerCapSpec
from repro.telemetry import get_tracer
from repro.vfi.islands import VfPoint, nearest_ladder_point

if TYPE_CHECKING:  # runtime import is deferred: sim.config imports the
    # power leaf modules, so importing the platform here at module scope
    # would close a cycle through the package __init__.
    from repro.sim.platform import Platform


class CapGovernor:
    """Deterministic phase-boundary power-cap enforcement for one run."""

    def __init__(
        self,
        platform: Platform,
        cap: PowerCapSpec,
        tracer=None,
    ):
        self.cap = cap
        self.tracer = tracer if tracer is not None else get_tracer()

        #: Workers that run lib-init (set by :meth:`begin`); the islands
        #: holding them are the shielded "master" islands.
        self.master_workers: Set[int] = set()

        self._steps: List[int] = []
        self._activities: Optional[np.ndarray] = None
        self._last_busy: Optional[np.ndarray] = None
        self._last_time = 0.0
        self._boundaries = 0
        self._unmet = 0
        self._events: List[Dict] = []
        self._residency: Dict[int, float] = {}
        self._throttled: Set[int] = set()
        self._throttled_s = 0.0
        self._peak_power = 0.0

        self.rebase(platform)

    # ------------------------------------------------------------------ #
    # base platform (stacks under the fault engine's degraded view)
    # ------------------------------------------------------------------ #

    def rebase(self, platform: Platform) -> None:
        """(Re)target the governor at *platform*.

        Called once at construction and again whenever the fault engine
        swaps the platform underneath (the governor's ladder steps stack
        on top of fault throttling, never the other way around).
        """
        self.base_platform = platform
        ladder = platform.ladder
        num_islands = platform.layout.num_clusters
        self._base_indices = tuple(
            ladder.index(nearest_ladder_point(point.frequency_hz, ladder))
            for point in platform.vf_points
        )
        members: List[List[int]] = [[] for _ in range(num_islands)]
        for worker in range(platform.num_cores):
            members[platform.island_of_worker(worker)].append(worker)
        self._island_workers = tuple(
            np.array(workers, dtype=int) for workers in members
        )
        if len(self._steps) != num_islands:
            self._steps = [0] * num_islands
        self._platform_cache: Dict[Tuple[int, ...], Platform] = {}

    def begin(self, trace) -> None:
        """Learn which workers are masters (lib-init owners) from the
        trace, before the first phase runs."""
        self.master_workers = {
            iteration.lib_init.home_worker for iteration in trace.iterations
        }

    # ------------------------------------------------------------------ #
    # the phase-boundary poll
    # ------------------------------------------------------------------ #

    def poll(self, now: float, busy_s: np.ndarray) -> bool:
        """Observe activity up to *now* and re-decide island V/F.

        *busy_s* is the cumulative per-worker busy time of the run so
        far.  Returns whether the effective platform changed (the caller
        must refresh its platform view and frequency/policy maps).
        """
        num_islands = len(self._steps)
        busy = np.asarray(busy_s, dtype=float)
        elapsed = now - self._last_time
        if elapsed > 0.0:
            # Close the residency interval the old assignment covered.
            for island in range(num_islands):
                index = self._index_of(island, self._steps[island])
                self._residency[index] = (
                    self._residency.get(index, 0.0) + elapsed
                )
                if self._steps[island] > 0:
                    self._throttled_s += elapsed
            delta = busy if self._last_busy is None else busy - self._last_busy
            activities = np.empty(num_islands)
            for island, workers in enumerate(self._island_workers):
                if len(workers) == 0:
                    activities[island] = 0.0
                    continue
                mean = float(np.mean(delta[workers])) / elapsed
                activities[island] = min(max(mean, 0.0), 1.0)
            self._activities = activities
            self._last_time = now
        elif self._activities is None:
            # First poll at t=0: nothing measured yet, assume full tilt
            # (the conservative direction for a cap).
            self._activities = np.ones(num_islands)
        self._last_busy = busy.copy()

        old_steps = list(self._steps)
        steps, met = self._decide(self._activities)
        self._steps = steps
        self._boundaries += 1
        if not met:
            self._unmet += 1
        power = self._chip_power_w(steps, self._activities)
        self._peak_power = max(self._peak_power, power)

        ladder = self.base_platform.ladder
        changed = False
        for island in range(num_islands):
            if steps[island] > 0:
                self._throttled.add(island)
            if steps[island] == old_steps[island]:
                continue
            changed = True
            from_index = self._index_of(island, old_steps[island])
            to_index = self._index_of(island, steps[island])
            self._events.append({
                "t_s": float(now),
                "island": int(island),
                "from_step": int(from_index),
                "to_step": int(to_index),
                "from_hz": float(ladder[from_index].frequency_hz),
                "to_hz": float(ladder[to_index].frequency_hz),
            })
            if self.tracer.enabled:
                kind = "down" if steps[island] > old_steps[island] else "up"
                self.tracer.counter_add(
                    f"power.throttle_{kind}", 1.0, key=f"island{island}"
                )
        return changed

    def _decide(self, activities: np.ndarray) -> Tuple[List[int], bool]:
        """The ladder assignment honoring the caps at *activities*.

        Recomputed from nominal every boundary -- re-raising under
        returning headroom is the zero case, not a special path.
        Returns ``(steps_down_per_island, every_binding_cap_met)``.
        """
        num_islands = len(self._steps)
        steps = [0] * num_islands
        met = True

        # Per-island budgets first: strictly local decisions.
        for island, cap_w in self.cap.island_caps_w:
            if island >= num_islands:
                continue  # lenient, like fault plans on a smaller die
            while (
                self._island_power_w(island, steps[island], activities[island])
                > cap_w
            ):
                if self._base_indices[island] - steps[island] <= 0:
                    met = False
                    break
                steps[island] += 1

        # Then the chip budget: cheapest-throughput-loss-first.
        chip_cap = self.cap.chip_cap_w
        if chip_cap is not None:
            master_islands = {
                self.base_platform.island_of_worker(worker)
                for worker in self.master_workers
            }
            while self._chip_power_w(steps, activities) > chip_cap:
                victim = self._pick_victim(steps, activities, master_islands)
                if victim is None:
                    met = False
                    break
                steps[victim] += 1
        return steps, met

    def _pick_victim(
        self,
        steps: List[int],
        activities: np.ndarray,
        master_islands: Set[int],
    ) -> Optional[int]:
        """The island whose next ladder step costs the least throughput.

        Master islands are shielded: they are only candidates when no
        other island has ladder headroom left (the cap must be honored
        somewhere, but never on the critical serial path while there is
        any alternative).
        """
        def loss_of(island: int) -> Tuple[float, int]:
            current = self._point(island, steps[island])
            lower = self._point(island, steps[island] + 1)
            drop = (
                (current.frequency_hz - lower.frequency_hz)
                * self.base_platform.perf_scales[island]
            )
            workers = len(self._island_workers[island])
            return (float(activities[island]) * workers * drop, island)

        candidates = [
            island
            for island in range(len(steps))
            if island not in master_islands
            and self._base_indices[island] - steps[island] > 0
        ]
        if not candidates:
            candidates = [
                island
                for island in range(len(steps))
                if self._base_indices[island] - steps[island] > 0
            ]
        if not candidates:
            return None
        return min(candidates, key=loss_of)

    # ------------------------------------------------------------------ #
    # power accounting
    # ------------------------------------------------------------------ #

    def _index_of(self, island: int, steps_down: int) -> int:
        return max(self._base_indices[island] - steps_down, 0)

    def _point(self, island: int, steps_down: int) -> VfPoint:
        return self.base_platform.ladder[self._index_of(island, steps_down)]

    def _island_power_w(
        self, island: int, steps_down: int, activity: float
    ) -> float:
        """Estimated power of *island* at *steps_down* with *activity*.

        Mean power over an interval with busy fraction ``a`` is
        ``P_dyn(a + (1-a) * idle_activity) + P_leak`` per core --
        dynamic power is linear in the activity factor, so the busy/idle
        split folds into one blended activity.
        """
        workers = len(self._island_workers[island])
        if workers == 0:
            return 0.0
        model = self.base_platform.core_power_of(island)
        point = self._point(island, steps_down)
        activity = float(activity)
        blend = activity + (1.0 - activity) * model.params.idle_activity
        return workers * (
            model.dynamic_power_w(point, blend) + model.leakage_power_w(point)
        )

    def _chip_power_w(self, steps: List[int], activities: np.ndarray) -> float:
        return sum(
            self._island_power_w(island, steps[island], activities[island])
            for island in range(len(steps))
        )

    def estimated_chip_power_w(self) -> float:
        """The current post-decision chip power estimate (watts)."""
        if self._activities is None:
            return self._chip_power_w(
                self._steps, np.ones(len(self._steps))
            )
        return self._chip_power_w(self._steps, self._activities)

    def throughput_proxy_hz(self) -> float:
        """Sum of effective worker frequencies under the current
        assignment -- the monotone proxy the frontier/property tests
        compare across cap levels."""
        perf_scales = self.base_platform.perf_scales
        total = 0.0
        for island in range(len(self._steps)):
            total += (
                len(self._island_workers[island])
                * self._point(island, self._steps[island]).frequency_hz
                * perf_scales[island]
            )
        return total

    # ------------------------------------------------------------------ #
    # effective view + accounting
    # ------------------------------------------------------------------ #

    def effective_platform(self) -> Platform:
        """The platform under the current ladder assignment.

        Returns the base platform object itself while every island sits
        at its base point, so uncapped stretches of a run share every
        cached table with a clean simulation.  Capped platforms are
        cached per assignment; :meth:`Platform.with_vf` keeps the base
        fabric (only V/F changes), so each assignment builds just its
        own per-clock tables, once.
        """
        steps = tuple(self._steps)
        if not any(steps):
            return self.base_platform
        platform = self._platform_cache.get(steps)
        if platform is not None:
            return platform
        base = self.base_platform
        points = [
            self._point(island, down) for island, down in enumerate(steps)
        ]
        platform = base.with_vf(points, name=f"{base.name}+capped")
        self._platform_cache[steps] = platform
        return platform

    def finish(self, total_time_s: float) -> None:
        """Close the final residency interval at the run's end."""
        elapsed = total_time_s - self._last_time
        if elapsed > 0.0:
            for island in range(len(self._steps)):
                index = self._index_of(island, self._steps[island])
                self._residency[index] = (
                    self._residency.get(index, 0.0) + elapsed
                )
                if self._steps[island] > 0:
                    self._throttled_s += elapsed
            self._last_time = total_time_s

    def impact(self) -> CapImpact:
        """Snapshot of the cap-enforcement accounting so far."""
        return CapImpact(
            cap_w=self.cap.chip_cap_w,
            boundaries_polled=self._boundaries,
            unmet_boundaries=self._unmet,
            throttle_events=[dict(e) for e in self._events],
            residency_s=dict(self._residency),
            throttled_s=self._throttled_s,
            throttled_islands=sorted(self._throttled),
            peak_power_w=self._peak_power,
        )
