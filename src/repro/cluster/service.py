"""The cluster service: the stable facade over the event engine.

:class:`ClusterService` is the API surface a cluster run is driven
through -- construct with a fleet / policy / cache, :meth:`run` a trace
(or a closed-loop :class:`~repro.cluster.arrivals.Source`), get a
:class:`~repro.cluster.record.ClusterRunResult` back.  The actual
discrete-event mechanics live one layer down in
:class:`~repro.cluster.engine.ClusterEngine`, which steps the typed
event heap of :mod:`repro.cluster.events`; the service wires a fresh
engine per run, carries the persistent pieces across runs (the
:class:`~repro.cluster.costmodel.CostModel` memo and the policy), and
folds the engine's records into the SLO report and run record.  The
engine is also the :class:`~repro.cluster.policies.SchedulingContext`
the policy observes; outside a run, ask ``service.cost_model.estimate``.

Determinism contract (unchanged by the engine refactor): events advance
to exact float minima, completions at a timestamp are applied before
retries, retries before arrivals, and the scheduling round runs only
after every simultaneous event -- so a chip freed "at" an instant is
visible to the job arriving at that instant.  Same trace + same fleet +
same policy + same source => byte-identical records and metrics; for
open-loop sources and non-preemptive policies the records are
bit-identical to the pre-engine loop (pinned by the golden record
tests).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.cluster.arrivals import ArrivalTrace, Source, make_source
from repro.cluster.costmodel import CostModel
from repro.cluster.engine import ClusterEngine
from repro.cluster.fleet import Fleet
from repro.cluster.metrics import slo_report
from repro.cluster.policies import ClusterScheduler, create_scheduler
from repro.cluster.record import ClusterRunResult
from repro.orchestrator.cache import StudyCache


class ClusterService:
    """One policy serving one fleet; :meth:`run` serves one trace."""

    def __init__(
        self,
        fleet: Fleet,
        policy: Union[str, ClusterScheduler] = "fifo",
        cache: Optional[Union[StudyCache, str]] = None,
        max_queue_depth: int = 8,
        cost_model: Optional[CostModel] = None,
        prefetch_jobs: Optional[int] = None,
    ):
        if isinstance(policy, str):
            policy = create_scheduler(policy)
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if prefetch_jobs is not None and prefetch_jobs < 1:
            raise ValueError(
                f"prefetch_jobs must be >= 1, got {prefetch_jobs}"
            )
        self.fleet = fleet
        self.policy = policy
        self.max_queue_depth = int(max_queue_depth)
        self.cost_model = (
            cost_model if cost_model is not None else CostModel(cache)
        )
        #: When set, each run resolves its distinct (study, chip-class)
        #: units through one parallel orchestrator batch up front.
        self.prefetch_jobs = prefetch_jobs

    def run(
        self,
        trace: Union[ArrivalTrace, Source],
        source: Union[str, Source] = "open",
        source_options: Optional[Dict] = None,
    ) -> ClusterRunResult:
        """Serve *trace* to completion and report the outcome.

        *trace* may be a bare :class:`ArrivalTrace` (wrapped in a source
        named by *source*: ``"open"`` sheds backpressured jobs,
        ``"closed"`` retries them with seeded exponential backoff tuned
        by *source_options*) or an already-built :class:`Source`.
        """
        if isinstance(trace, ArrivalTrace):
            if isinstance(source, str):
                src = make_source(trace, source, **(source_options or {}))
            else:
                src = source
        else:
            src = trace
        engine = ClusterEngine(
            self.fleet,
            self.policy,
            self.cost_model,
            self.max_queue_depth,
            prefetch_jobs=self.prefetch_jobs,
        )
        ordered = engine.run(src)
        report = slo_report(self.policy.name, ordered, self.fleet)
        return ClusterRunResult(
            trace=src.trace,
            policy=self.policy.name,
            fleet=self.fleet,
            max_queue_depth=self.max_queue_depth,
            records=ordered,
            report=report,
            study_stats=self.cost_model.stats(),
            source=src.to_dict(),
        )


def run_workload(
    trace: Union[ArrivalTrace, Source],
    fleet: Fleet,
    policy: Union[str, ClusterScheduler] = "fifo",
    cache: Optional[Union[StudyCache, str]] = None,
    max_queue_depth: int = 8,
    source: Union[str, Source] = "open",
    source_options: Optional[Dict] = None,
    prefetch_jobs: Optional[int] = None,
) -> ClusterRunResult:
    """One-shot convenience: build the service and serve *trace*."""
    service = ClusterService(
        fleet,
        policy=policy,
        cache=cache,
        max_queue_depth=max_queue_depth,
        prefetch_jobs=prefetch_jobs,
    )
    return service.run(trace, source=source, source_options=source_options)
