"""Cluster jobs and their lifecycle records.

A :class:`ClusterJob` is one MapReduce job submitted to the cluster
service: which app to run, at what functional scale and dataset seed,
when it arrives, how urgent it is (priority), and by when it must finish
(absolute deadline).  Jobs are frozen and canonicalized at construction
-- exactly like :class:`repro.orchestrator.spec.StudySpec`, which a job
resolves to once the scheduler has placed it on a chip.

A :class:`JobRecord` is the audited lifecycle of one job through the
service: admission -> queue -> dispatch -> complete (or rejection at
admission when the bounded queue is full).  Records are plain data and
round-trip through canonical JSON, so a recorded cluster run can be
replayed and compared byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.apps.registry import canonical_app_name
from repro.orchestrator.spec import StudySpec
from repro.utils.jsonutil import to_builtin

if TYPE_CHECKING:
    from repro.cluster.fleet import ChipSpec

#: Job lifecycle statuses.  ``REJECTED`` and ``COMPLETED`` are the only
#: terminal statuses; ``RETRYING`` (closed-loop backoff pending) and
#: ``PREEMPTED`` (checkpointed and requeued) are transient and never
#: survive to the end of a run.
REJECTED = "rejected"
COMPLETED = "completed"
RETRYING = "retrying"
PREEMPTED = "preempted"

#: Statuses a finished run may leave on a record.
TERMINAL_STATUSES = (COMPLETED, REJECTED)


@dataclass(frozen=True)
class ClusterJob:
    """One MapReduce job arriving at the cluster."""

    job_id: int
    app: str
    arrival_s: float
    scale: float = 0.05
    seed: int = 7
    #: Larger is more urgent; ties break on arrival order then job id.
    priority: int = 0
    #: Absolute completion deadline (simulated seconds), or ``None`` for
    #: a best-effort job.
    deadline_s: Optional[float] = None
    #: Input dataset size, charged as transfer time when the job lands on
    #: a chip where the dataset is not already resident.
    input_mb: float = 64.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "job_id", int(self.job_id))
        object.__setattr__(self, "app", canonical_app_name(self.app))
        object.__setattr__(self, "arrival_s", float(self.arrival_s))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "priority", int(self.priority))
        if self.deadline_s is not None:
            object.__setattr__(self, "deadline_s", float(self.deadline_s))
        object.__setattr__(self, "input_mb", float(self.input_mb))
        if self.job_id < 0:
            raise ValueError(f"job_id must be >= 0, got {self.job_id}")
        # NaN passes every comparison below, and an infinite time or
        # size breaks the run (and its JSON record) far from here.
        for name in ("arrival_s", "deadline_s", "input_mb"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(
                    f"job {self.job_id}: {name} must be finite, got {value!r}"
                )
        if self.arrival_s < 0.0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale!r}")
        if self.deadline_s is not None and self.deadline_s <= self.arrival_s:
            raise ValueError(
                f"deadline_s ({self.deadline_s}) must be after arrival_s "
                f"({self.arrival_s})"
            )
        if self.input_mb < 0.0:
            raise ValueError(f"input_mb must be >= 0, got {self.input_mb}")

    # ------------------------------------------------------------------ #

    @property
    def dataset_key(self) -> str:
        """Identity of the job's input dataset (locality/residency unit)."""
        return f"{self.app}@{self.scale:g}#{self.seed}"

    def spec_for(self, chip: "ChipSpec") -> StudySpec:
        """The per-chip simulation unit this job resolves to.

        Jobs with the same (app, scale, seed) landing on chips of the
        same class collapse to one :class:`StudySpec` -- which is how the
        orchestrator's StudyCache dedups per-job simulations.
        """
        return StudySpec(
            app=self.app,
            scale=self.scale,
            seed=self.seed,
            num_workers=chip.num_workers,
            winoc_methodology=chip.winoc_methodology,
            include_vfi1=chip.needs_vfi1,
            fault_plan=chip.fault_plan,
            tech=chip.tech,
            power_cap=chip.power_cap,
        )

    def to_dict(self) -> Dict:
        names = self.__dataclass_fields__
        return {name: getattr(self, name) for name in names}

    @classmethod
    def from_dict(cls, data: Dict) -> "ClusterJob":
        # __post_init__ coerces every field to its builtin type.
        return cls(**data)

    @property
    def label(self) -> str:
        parts = [f"job{self.job_id}", self.app, f"t={self.arrival_s:.1f}s"]
        if self.priority:
            parts.append(f"p{self.priority}")
        if self.deadline_s is not None:
            parts.append(f"due={self.deadline_s:.1f}s")
        return " ".join(parts)


@dataclass
class JobRecord:
    """How one job moved through admission -> queue -> dispatch -> complete.

    All timestamps are absolute simulated seconds.  Rejected jobs carry
    only ``arrival_s`` (admission is where backpressure acts); completed
    jobs carry the full timeline plus the measured service outcome.
    """

    job: ClusterJob
    status: str = COMPLETED
    chip_id: Optional[int] = None
    admitted_s: Optional[float] = None
    dispatched_s: Optional[float] = None
    completed_s: Optional[float] = None
    #: Input staging time charged before execution (0 when resident).
    transfer_s: float = 0.0
    #: Simulated makespan of the job's study on its chip.
    service_s: float = 0.0
    energy_j: float = 0.0
    #: Admission attempts made (1 = admitted or rejected on arrival;
    #: closed-loop retries increment it).
    attempts: int = 1
    #: Times this job was checkpointed off a chip and requeued.
    preemptions: int = 0
    #: Staging time spent on transfers that a preemption cut short
    #: (the only work a checkpoint cannot preserve).
    wasted_transfer_s: float = 0.0
    extra: Dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #

    @property
    def rejected(self) -> bool:
        return self.status == REJECTED

    @property
    def queue_wait_s(self) -> float:
        """Time spent queued between admission and dispatch."""
        if self.dispatched_s is None or self.admitted_s is None:
            return 0.0
        return self.dispatched_s - self.admitted_s

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion sojourn time (0 for rejected jobs)."""
        if self.completed_s is None:
            return 0.0
        return self.completed_s - self.job.arrival_s

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the deadline was met; ``None`` for best-effort jobs
        and for rejected jobs (a rejection is not a deadline miss)."""
        if self.job.deadline_s is None or self.completed_s is None:
            return None
        return self.completed_s <= self.job.deadline_s

    def to_dict(self) -> Dict:
        out = {
            "status": self.status,
            "chip_id": self.chip_id,
            "admitted_s": self.admitted_s,
            "dispatched_s": self.dispatched_s,
            "completed_s": self.completed_s,
            "transfer_s": self.transfer_s,
            "service_s": self.service_s,
            "energy_j": self.energy_j,
            "extra": dict(self.extra),
        }
        # Retry/preemption fields appeared after the v1 schema; they are
        # omitted at their defaults so open-loop, non-preemptive runs
        # (and their replay digests) stay byte-identical to records
        # written before the event engine existed.
        if self.attempts != 1:
            out["attempts"] = self.attempts
        if self.preemptions != 0:
            out["preemptions"] = self.preemptions
        if self.wasted_transfer_s != 0.0:
            out["wasted_transfer_s"] = self.wasted_transfer_s
        # The job skips the walk: ClusterJob coerces every field to a
        # builtin at construction.
        return {"job": self.job.to_dict(), **to_builtin(out)}

    @classmethod
    def from_dict(
        cls, data: Dict, job: Optional[ClusterJob] = None
    ) -> "JobRecord":
        """*job*, when given, stands for ``data["job"]``: a loader that
        already holds the job it encodes passes it instead of a rebuild."""
        return cls(
            job=ClusterJob.from_dict(data["job"]) if job is None else job,
            status=to_builtin(data["status"]),
            chip_id=to_builtin(data["chip_id"]),
            admitted_s=to_builtin(data["admitted_s"]),
            dispatched_s=to_builtin(data["dispatched_s"]),
            completed_s=to_builtin(data["completed_s"]),
            transfer_s=float(data["transfer_s"]),
            service_s=float(data["service_s"]),
            energy_j=float(data["energy_j"]),
            attempts=int(data.get("attempts", 1)),
            preemptions=int(data.get("preemptions", 0)),
            wasted_transfer_s=float(data.get("wasted_transfer_s", 0.0)),
            extra=to_builtin(dict(data.get("extra", {}))),
        )
