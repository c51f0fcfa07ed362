"""Per-job simulation resolution, deduped through the StudyCache.

Every job the cluster dispatches (and every estimate a cost-aware policy
asks for) resolves to one :class:`~repro.orchestrator.spec.StudySpec`
simulation.  The :class:`CostModel` keeps a memo of the studies it has
resolved, and resolves each miss the one way the orchestrator resolves
any study: :func:`~repro.orchestrator.executor.run_campaign` reads the
persistent :class:`~repro.orchestrator.cache.StudyCache`, else runs the
pipeline and persists the result.  The model counts each outcome from
the campaign manifest, so a replayed cluster run against a warm cache
re-simulates **zero** per-job studies, and the counters prove it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.cluster.fleet import ChipSpec
from repro.cluster.jobs import ClusterJob
from repro.core.experiment import AppStudy
from repro.orchestrator.cache import StudyCache
from repro.orchestrator.executor import run_campaign
from repro.orchestrator.spec import StudySpec


@dataclass(frozen=True)
class JobEstimate:
    """Predicted cost of one job on one chip class."""

    service_s: float
    energy_j: float

    @property
    def edp(self) -> float:
        return self.energy_j * self.service_s


@dataclass(frozen=True)
class SpeedStep:
    """One DVFS operating point a speed-scaling policy may dispatch at.

    Studies simulate at the chip's nominal point; a slower rail scales
    the simulated outcome analytically: service time stretches with the
    clock (``f_nom / f``) and energy shrinks with the square of the rail
    voltage (dynamic energy ~ C V^2 per switched capacitance -- the work,
    not the time, fixes the switching count; per arXiv:1402.2810 the
    energy-per-work is what speed scaling trades against the deadline).
    """

    frequency_hz: float
    voltage_v: float
    nominal_frequency_hz: float
    nominal_voltage_v: float

    @property
    def time_scale(self) -> float:
        return self.nominal_frequency_hz / self.frequency_hz

    @property
    def energy_scale(self) -> float:
        return (self.voltage_v / self.nominal_voltage_v) ** 2

    @property
    def is_nominal(self) -> bool:
        return self.frequency_hz == self.nominal_frequency_hz

    @property
    def label(self) -> str:
        return f"{self.voltage_v:.2f}V/{self.frequency_hz / 1e9:g}GHz"


def scale_estimate(estimate: JobEstimate, step: Optional[SpeedStep]) -> JobEstimate:
    """*estimate* re-timed at DVFS *step* (``None`` = nominal)."""
    if step is None or step.is_nominal:
        return estimate
    return JobEstimate(
        service_s=estimate.service_s * step.time_scale,
        energy_j=estimate.energy_j * step.energy_scale,
    )


class CostModel:
    """Resolve (job, chip) pairs to simulated studies, with dedup stats."""

    def __init__(self, cache: Optional[Union[StudyCache, str]] = None):
        if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = StudyCache(cache)
        self.cache = cache
        self._memo: Dict[StudySpec, AppStudy] = {}
        #: (app, scale, seed, chip class) -> estimate; see :meth:`estimate`.
        self._estimates: Dict[Tuple, JobEstimate] = {}
        #: Units actually simulated by this model (cold resolutions).
        self.computed = 0
        #: Units served by the persistent StudyCache.
        self.cache_hits = 0
        #: Units served by the in-process memo (repeat jobs in one run).
        self.memo_hits = 0
        #: Batched prefetch rounds run (the parallel cost-model front).
        self.batches = 0
        #: Units resolved through prefetch batches (subset of the above).
        self.prefetched = 0

    # ------------------------------------------------------------------ #

    @property
    def unique_specs(self) -> int:
        return len(self._memo)

    def study(self, spec: StudySpec) -> AppStudy:
        """The study for *spec*: memo, else a one-unit campaign."""
        study = self._memo.get(spec)
        if study is not None:
            self.memo_hits += 1
            return study
        # One attempt: a deterministic failure would fail a retry alike.
        self._resolve([spec], jobs=1, retries=0)
        return self._memo[spec]

    def estimate(self, job: ClusterJob, chip: ChipSpec) -> JobEstimate:
        """Predicted service time and energy of *job* on *chip*.

        The "estimate" is the exact simulated outcome -- the simulator
        *is* the cost model, and the StudyCache makes asking cheap.  Each
        (job class, chip class) pair is priced once per model: a repeat
        skips building the :class:`StudySpec` and counts as the memo hit
        :meth:`study` would have counted, so :meth:`stats` is unchanged.
        """
        key = (job.app, job.scale, job.seed, chip.class_key)
        estimate = self._estimates.get(key)
        if estimate is not None:
            self.memo_hits += 1
            return estimate
        result = self.study(job.spec_for(chip)).result(chip.config)
        estimate = JobEstimate(
            service_s=float(result.total_time_s),
            energy_j=float(result.total_energy_j),
        )
        self._estimates[key] = estimate
        return estimate

    def prefetch(
        self,
        specs: Iterable[StudySpec],
        jobs: int = 1,
        retries: int = 1,
    ) -> Dict[str, int]:
        """Resolve *specs* in one batch through the orchestrator fan-out.

        The batch entry point of the parallel cost-model front: distinct
        (study, chip-class) units the run will need are resolved through
        one :func:`~repro.orchestrator.executor.run_campaign` -- process
        fan-out when ``jobs > 1`` -- and memoized, so the event loop's
        per-dispatch estimates are pure dictionary lookups afterwards.
        Counters fold into :meth:`stats` exactly as if the units had
        resolved serially (computed / cache_hits), plus batch counters.
        """
        misses = [s for s in dict.fromkeys(specs) if s not in self._memo]
        self.batches += 1
        if not misses:
            return {"batch_size": 0, "computed": 0, "cache_hits": 0}
        computed, cached = self._resolve(misses, jobs=jobs, retries=retries)
        self.prefetched += len(misses)
        return {
            "batch_size": len(misses),
            "computed": computed,
            "cache_hits": cached,
        }

    def _resolve(
        self, specs: Iterable[StudySpec], jobs: int, retries: int
    ) -> Tuple[int, int]:
        """Resolve *specs* into the memo with one campaign; returns its
        (computed, cache hits).  A failed unit raises
        :class:`~repro.orchestrator.executor.CampaignError` -- a job whose
        study is missing cannot be priced."""
        campaign = run_campaign(
            specs, jobs=jobs, cache=self.cache, retries=retries
        )
        campaign.raise_failures()
        manifest = campaign.manifest
        self.computed += manifest.num_computed
        self.cache_hits += manifest.num_cached
        self._memo.update(campaign.studies)
        return manifest.num_computed, manifest.num_cached

    def stats(self) -> Dict[str, int]:
        out = {
            "computed": int(self.computed),
            "cache_hits": int(self.cache_hits),
            "memo_hits": int(self.memo_hits),
            "unique_specs": int(self.unique_specs),
        }
        # Batch-front counters appear only once a prefetch ran, so
        # pre-engine study_stats dictionaries keep their exact shape.
        if self.batches:
            out["batches"] = int(self.batches)
            out["prefetched"] = int(self.prefetched)
        return out
