"""Reference record loader and serializer: the code they replaced.

``ClusterRunResult.load`` builds jobs through a lean ``ClusterJob``
constructor and rows through a leaf check, and ``save`` splices each
trace job's text into the record rows instead of encoding it twice.
What they replaced is kept here verbatim as the oracle
``tests/cluster/test_record_oracle.py`` checks them against, byte for
byte, value for value and error message for error message:

* :func:`job_from_dict` -- ``ClusterJob(**row)`` with the coercing
  ``__post_init__`` that ran every conversion on every field;
* :func:`record_from_dict` / :func:`load` -- the loader that compared
  each row with a freshly built ``job.to_dict()`` and walked every
  field with ``to_builtin``;
* :func:`record_to_dict` / :func:`member_texts` / :func:`save_text` --
  the serializer that walked every row with ``to_builtin`` and encoded
  each job once in the trace and again in its row.

The loaded objects are the program's own types (``ClusterJob``,
``JobRecord``, ``ArrivalTrace``, ``ClusterRunResult``), so the two
loaders' outputs compare type for type.  ``ArrivalTrace`` itself is
built by its constructor, whose ordering and id check are unchanged.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import methodcaller
from typing import Dict, Iterator, Optional, Tuple

from repro.apps.registry import canonical_app_name
from repro.cluster import jobs as jobs_module
from repro.cluster.arrivals import TRACE_SCHEMA_VERSION, ArrivalTrace
from repro.cluster.fleet import Fleet
from repro.cluster.jobs import JobRecord
from repro.cluster.metrics import SloReport
from repro.cluster.record import RECORD_SCHEMA_VERSION, ClusterRunResult
from repro.utils.jsonutil import (
    canonical_json,
    dump_builtin,
    load_json_object,
    read_member,
    to_builtin,
)


@dataclass(frozen=True)
class ClusterJob:
    """The job class as it was, named and placed like the program's so
    its argument errors (``ClusterJob.__init__() got an unexpected
    keyword argument ...``, ``repro.cluster.jobs.ClusterJob() argument
    after ** must be a mapping ...``) read exactly as they did."""

    job_id: int
    app: str
    arrival_s: float
    scale: float = 0.05
    seed: int = 7
    priority: int = 0
    deadline_s: Optional[float] = None
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


ClusterJob.__module__ = jobs_module.__name__
_NAMES = tuple(ClusterJob.__dataclass_fields__)


def job_from_dict(data: Dict) -> jobs_module.ClusterJob:
    """``ClusterJob.from_dict`` as it was (``cls(**data)``), returning
    the program's job type holding the coerced fields."""
    old = ClusterJob(**data)
    job = object.__new__(jobs_module.ClusterJob)
    for name in _NAMES:
        object.__setattr__(job, name, getattr(old, name))
    return job


def job_to_dict(job) -> Dict:
    names = job.__dataclass_fields__
    return {name: getattr(job, name) for name in names}


def trace_to_dict(trace: ArrivalTrace) -> Dict:
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "name": trace.name,
        "seed": trace.seed,
        "jobs": [job_to_dict(job) for job in trace.jobs],
    }


def trace_from_dict(data: Dict) -> ArrivalTrace:
    version = data.get("schema_version", TRACE_SCHEMA_VERSION)
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"trace schema version {version} not supported "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    return ArrivalTrace(
        name=read_member(data, "name", str),
        seed=read_member(data, "seed", int),
        jobs=read_member(
            data, "jobs",
            lambda rows: tuple(map(job_from_dict, rows)),
        ),
    )


def record_to_dict(record: JobRecord) -> Dict:
    out = {
        "status": record.status,
        "chip_id": record.chip_id,
        "admitted_s": record.admitted_s,
        "dispatched_s": record.dispatched_s,
        "completed_s": record.completed_s,
        "transfer_s": record.transfer_s,
        "service_s": record.service_s,
        "energy_j": record.energy_j,
        "extra": dict(record.extra),
    }
    if record.attempts != 1:
        out["attempts"] = record.attempts
    if record.preemptions != 0:
        out["preemptions"] = record.preemptions
    if record.wasted_transfer_s != 0.0:
        out["wasted_transfer_s"] = record.wasted_transfer_s
    return {"job": job_to_dict(record.job), **to_builtin(out)}


def record_from_dict(data: Dict, job=None) -> JobRecord:
    return JobRecord(
        job=job_from_dict(data["job"]) if job is None else job,
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


def load_record(row: Dict, jobs: Dict) -> JobRecord:
    job_row = row["job"]
    job_id = job_row.get("job_id") if type(job_row) is dict else None
    job = jobs.get(job_id) if type(job_id) is int else None
    if job is None or job_row != job_to_dict(job):
        job = job_from_dict(job_row)
        if jobs.get(job.job_id) == job:
            job = jobs[job.job_id]
    return record_from_dict(row, job=job)


def from_dict(data: Dict) -> ClusterRunResult:
    version = data.get("schema_version", RECORD_SCHEMA_VERSION)
    if version != RECORD_SCHEMA_VERSION:
        raise ValueError(
            f"record schema version {version} not supported "
            f"(expected {RECORD_SCHEMA_VERSION})"
        )
    trace = read_member(data, "trace", trace_from_dict)
    jobs = {job.job_id: job for job in trace.jobs}
    records = read_member(
        data, "records",
        lambda rows: [load_record(row, jobs) for row in rows],
    )
    return ClusterRunResult(
        trace=trace,
        policy=read_member(data, "policy", str),
        fleet=read_member(data, "fleet", Fleet.from_dict),
        max_queue_depth=read_member(data, "max_queue_depth", int),
        records=records,
        report=read_member(data, "report", SloReport.from_dict),
        study_stats=to_builtin(dict(data.get("study_stats", {}))),
        source=to_builtin(data.get("source")),
    )


def load(path) -> ClusterRunResult:
    return load_json_object(path, from_dict)


_TO_BUILTIN = {
    "trace": trace_to_dict,
    "fleet": methodcaller("to_dict"),
    "max_queue_depth": int,
    "records": lambda records: [record_to_dict(record) for record in records],
    "report": methodcaller("to_dict"),
    "source": lambda source: to_builtin(dict(source)),
}


def member_texts(run: ClusterRunResult) -> Iterator[Tuple[str, str]]:
    """(key, canonical JSON text) of each payload member of *run*."""
    for key, member in run._members():
        convert = _TO_BUILTIN.get(key)
        yield key, dump_builtin(member if convert is None else convert(member))


def _object_pieces(members: Dict[str, str]) -> Iterator[str]:
    yield "{"
    for index, key in enumerate(sorted(members)):
        yield ("," if index else "") + dump_builtin(key) + ":"
        yield members[key]
    yield "}"


def _digest(members: Dict[str, str]) -> str:
    sha = hashlib.sha256()
    for piece in _object_pieces(members):
        sha.update(piece.encode("utf-8"))
    return sha.hexdigest()


def digest(run: ClusterRunResult) -> str:
    """The replay digest of *run*."""
    return _digest(dict(member_texts(run)))


def save_text(run: ClusterRunResult) -> str:
    """The text ``save`` wrote for *run*."""
    members = dict(member_texts(run))
    members["replay_digest"] = dump_builtin(_digest(members))
    members["study_stats"] = canonical_json(dict(run.study_stats))
    return "".join(_object_pieces(members)) + "\n"
