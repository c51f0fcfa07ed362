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
from operator import attrgetter
from typing import Dict, Optional, TYPE_CHECKING

from repro.apps.registry import APP_NAMES, canonical_app_name
from repro.orchestrator.spec import StudySpec
from repro.utils.jsonutil import BUILTIN_LEAVES, to_builtin

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

#: App names :func:`canonical_app_name` returns as they are.
_CANONICAL_APPS = frozenset(APP_NAMES)


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
        # Coerce every field to its builtin type.  A field that already
        # has it -- every field of a job read back from JSON -- is left
        # as it is: the conversion would return it unchanged.
        coerce = object.__setattr__
        if type(self.job_id) is not int:
            coerce(self, "job_id", int(self.job_id))
        if type(self.app) is not str or self.app not in _CANONICAL_APPS:
            coerce(self, "app", canonical_app_name(self.app))
        if type(self.arrival_s) is not float:
            coerce(self, "arrival_s", float(self.arrival_s))
        if type(self.scale) is not float:
            coerce(self, "scale", float(self.scale))
        if type(self.seed) is not int:
            coerce(self, "seed", int(self.seed))
        if type(self.priority) is not int:
            coerce(self, "priority", int(self.priority))
        if self.deadline_s is not None and type(self.deadline_s) is not float:
            coerce(self, "deadline_s", float(self.deadline_s))
        if type(self.input_mb) is not float:
            coerce(self, "input_mb", float(self.input_mb))
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
        return dict(zip(_JOB_FIELDS, _job_values(self)))

    @classmethod
    def from_dict(cls, data: Dict) -> "ClusterJob":
        # A row naming every field fills the new job's instance dict in
        # one step, as unpickling does; __post_init__ then coerces and
        # checks it exactly as after __init__.  Any other row takes the
        # keyword path, whose TypeError names the stray or missing key.
        names = cls.__dataclass_fields__.keys()
        if type(data) is dict and data.keys() == names:
            job = object.__new__(cls)
            job.__dict__.update(data)
            job.__post_init__()
            return job
        return cls(**data)

    @property
    def label(self) -> str:
        parts = [f"job{self.job_id}", self.app, f"t={self.arrival_s:.1f}s"]
        if self.priority:
            parts.append(f"p{self.priority}")
        if self.deadline_s is not None:
            parts.append(f"due={self.deadline_s:.1f}s")
        return " ".join(parts)


#: A job's fields, in declaration order, and a reader of their values.
_JOB_FIELDS = tuple(ClusterJob.__dataclass_fields__)
_job_values = attrgetter(*_JOB_FIELDS)


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
        # The job skips the walk: ClusterJob coerces every field to a
        # builtin at construction.
        return self._row(self.job.to_dict())

    def _row(self, job: object) -> Dict:
        """:meth:`to_dict` with *job* as the value of its ``job`` key."""
        out = {
            "job": None,
            "status": self.status,
            "chip_id": self.chip_id,
            "admitted_s": self.admitted_s,
            "dispatched_s": self.dispatched_s,
            "completed_s": self.completed_s,
            "transfer_s": self.transfer_s,
            "service_s": self.service_s,
            "energy_j": self.energy_j,
            "extra": None,
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
        # job and extra are filled in below.  Every other field holds a
        # builtin leaf unless, say, a numpy scalar was assigned to it,
        # and only then is the row walked.
        if not BUILTIN_LEAVES.issuperset(map(type, out.values())):
            out = to_builtin(out)
        out["job"] = job
        out["extra"] = _builtin_extra(self.extra)
        return out

    @classmethod
    def from_dict(
        cls, data: Dict, job: Optional[ClusterJob] = None
    ) -> "JobRecord":
        """*job*, when given, stands for ``data["job"]``: a loader that
        already holds the job it encodes passes it instead of a rebuild."""
        if job is None:
            job = ClusterJob.from_dict(data["job"])
        timeline = (
            data["status"],
            data["chip_id"],
            data["admitted_s"],
            data["dispatched_s"],
            data["completed_s"],
        )
        # A row read from JSON holds builtin leaves here; anything else
        # (a numpy scalar, a container) is converted by to_builtin.
        if not BUILTIN_LEAVES.issuperset(map(type, timeline)):
            timeline = tuple(map(to_builtin, timeline))
        status, chip_id, admitted_s, dispatched_s, completed_s = timeline
        return cls(
            job=job,
            status=status,
            chip_id=chip_id,
            admitted_s=admitted_s,
            dispatched_s=dispatched_s,
            completed_s=completed_s,
            transfer_s=float(data["transfer_s"]),
            service_s=float(data["service_s"]),
            energy_j=float(data["energy_j"]),
            attempts=int(data.get("attempts", 1)),
            preemptions=int(data.get("preemptions", 0)),
            wasted_transfer_s=float(data.get("wasted_transfer_s", 0.0)),
            extra=_builtin_extra(data.get("extra", {})),
        )


def _builtin_extra(extra: object) -> Dict:
    """``to_builtin(dict(extra))``, without the walk for an empty dict."""
    if type(extra) is dict and not extra:
        return {}
    return to_builtin(dict(extra))
