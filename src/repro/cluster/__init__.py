"""Multi-job cluster service over fleets of simulated VFI chips.

The production-shaped layer above the per-chip pipeline: seeded arrival
traces of MapReduce jobs behind open- or closed-loop sources, pluggable
cluster-level scheduling policies (including preemptive EDF and DVFS
speed scaling), admission control with bounded-queue backpressure and
seeded retry backoff, StudyCache-deduped per-job simulation with a
parallel batch front, SLO metrics and byte-identical record/replay.

Layering::

    repro.cluster.service   stable facade (one run -> one record)
      repro.cluster.engine    event application + scheduling rounds
        repro.cluster.events    typed deterministic event heap
      repro.cluster.policies  SCHEDULERS registry (fifo/.../edf_preempt)
      repro.cluster.costmodel StudySpec resolution (memo -> run_campaign)
      repro.cluster.arrivals  seeded ArrivalTrace + Source disciplines
      repro.cluster.fleet     ChipSpec / Fleet (faults/tech/caps per chip)
      repro.cluster.metrics   per-job + fleet SLO aggregation
      repro.cluster.record    canonical-JSON run records + replay
"""

from repro.cluster.arrivals import (
    ArrivalTrace,
    ClosedLoopSource,
    OpenLoopSource,
    Source,
    WORKLOADS,
    generate_trace,
    make_source,
    preset_trace,
    source_from_dict,
)
from repro.cluster.costmodel import (
    CostModel,
    JobEstimate,
    SpeedStep,
    scale_estimate,
)
from repro.cluster.engine import ClusterEngine
from repro.cluster.events import Event, EventEngine
from repro.cluster.fleet import ChipSpec, Fleet, fleet_for, hetero_fleet
from repro.cluster.jobs import (
    COMPLETED,
    PREEMPTED,
    REJECTED,
    RETRYING,
    TERMINAL_STATUSES,
    ClusterJob,
    JobRecord,
)
from repro.cluster.metrics import SloReport, slo_report
from repro.cluster.policies import (
    SCHEDULERS,
    ClusterScheduler,
    RunningJob,
    create_scheduler,
    register_scheduler,
    scheduler_names,
)
from repro.cluster.record import ClusterRunResult, replay, verify_replay
from repro.cluster.service import ClusterService, run_workload

__all__ = [
    "ArrivalTrace",
    "Source",
    "OpenLoopSource",
    "ClosedLoopSource",
    "make_source",
    "source_from_dict",
    "WORKLOADS",
    "generate_trace",
    "preset_trace",
    "CostModel",
    "JobEstimate",
    "SpeedStep",
    "scale_estimate",
    "ClusterEngine",
    "Event",
    "EventEngine",
    "ChipSpec",
    "Fleet",
    "fleet_for",
    "hetero_fleet",
    "COMPLETED",
    "REJECTED",
    "RETRYING",
    "PREEMPTED",
    "TERMINAL_STATUSES",
    "ClusterJob",
    "JobRecord",
    "SloReport",
    "slo_report",
    "SCHEDULERS",
    "ClusterScheduler",
    "RunningJob",
    "create_scheduler",
    "register_scheduler",
    "scheduler_names",
    "ClusterRunResult",
    "replay",
    "verify_replay",
    "ClusterService",
    "run_workload",
]
