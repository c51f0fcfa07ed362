"""Parallel experiment orchestration with a persistent result cache.

Every figure, table, sweep, benchmark and cluster cost estimate is a
study: one app at one scale/seed/size is one trace-driven pipeline run,
so a campaign is embarrassingly parallel.  A :class:`StudySpec` is a
study's one identity -- :func:`repro.core.experiment.run_app_study`
only builds one, and the process memo is keyed by it -- and
:func:`run_campaign` is the one way to resolve a study.  This package
supplies the scaffolding:

* :mod:`~repro.orchestrator.spec` -- declarative, hashable, canonical
  :class:`StudySpec` units and :func:`expand_grid` campaign grids;
* :mod:`~repro.orchestrator.cache` -- a content-addressed on-disk
  :class:`StudyCache` of full study documents, keyed by a stable hash of
  the spec plus a schema version;
* :mod:`~repro.orchestrator.executor` -- :func:`run_campaign`: process
  fan-out with per-unit timeout, bounded retries, cache-first resolution
  and a graceful in-process serial fallback for ``jobs=1``; every study
  it resolves is registered in the process memo;
* :mod:`~repro.orchestrator.manifest` -- :class:`RunManifest` /
  :class:`UnitRecord` audit records (wall time, hit/miss, retries,
  failures) for every campaign run.

Quick start::

    from repro.orchestrator import StudySpec, expand_grid, run_campaign

    specs = expand_grid(apps=["histogram", "kmeans"], seeds=range(7, 12))
    campaign = run_campaign(specs, jobs=4, cache=".study_cache")
    campaign.raise_failures()
    print(campaign.manifest.format_summary())
"""

from repro.orchestrator.cache import StudyCache
from repro.orchestrator.executor import (
    CampaignError,
    CampaignResult,
    compute_study_document,
    run_campaign,
)
from repro.orchestrator.manifest import RunManifest, UnitRecord
from repro.orchestrator.spec import (
    CACHE_SCHEMA_VERSION,
    StudySpec,
    expand_grid,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CampaignError",
    "CampaignResult",
    "RunManifest",
    "StudyCache",
    "StudySpec",
    "UnitRecord",
    "compute_study_document",
    "expand_grid",
    "run_campaign",
]
