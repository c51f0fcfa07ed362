"""Cluster run records: canonical, replayable artifacts of one run.

A :class:`ClusterRunResult` captures everything a cluster run did -- the
arrival trace it served, the policy and fleet it ran on, one
:class:`~repro.cluster.jobs.JobRecord` per job, and the fleet-level
:class:`~repro.cluster.metrics.SloReport` -- as canonical JSON.

Replay contract: the **replay digest** (sha256 over the canonical JSON
of trace + policy + fleet + queue bound + records + report) is a pure
function of the simulated schedule.  Re-running a record's trace through
the same policy on the same fleet must reproduce that digest byte for
byte; the cold/warm split of the study resolutions (``study_stats``) is
deliberately excluded, because a warm replay resolves every per-job
simulation from the StudyCache without changing a single metric.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.cluster.arrivals import ArrivalTrace
from repro.cluster.fleet import Fleet
from repro.cluster.jobs import JobRecord
from repro.cluster.metrics import SloReport
from repro.utils.jsonutil import (
    canonical_json,
    dump_builtin,
    load_json_object,
    read_member,
    to_builtin,
)

#: Bump when the run-record JSON schema changes.
RECORD_SCHEMA_VERSION = 1


@dataclass
class ClusterRunResult:
    """The complete audited outcome of one cluster run."""

    trace: ArrivalTrace
    policy: str
    fleet: Fleet
    max_queue_depth: int
    records: List[JobRecord]
    report: SloReport
    #: CostModel counters (computed / cache_hits / memo_hits /
    #: unique_specs, plus batches / prefetched when the parallel
    #: cost-model front ran).  Excluded from the replay digest: a warm
    #: replay differs here and nowhere else.
    study_stats: Dict[str, int] = field(default_factory=dict)
    #: The source discipline the run was served under
    #: (:meth:`~repro.cluster.arrivals.Source.to_dict`), or ``None``
    #: for the legacy open loop.  Part of the replay digest -- a
    #: closed-loop run replays under the same backoff parameters.
    source: Optional[Dict] = None

    # ------------------------------------------------------------------ #

    def _member_values(self) -> Iterator[Tuple[str, object]]:
        """(key, builtin value) of each payload member, in payload order,
        each built only when the consumer reaches it."""
        yield "schema_version", RECORD_SCHEMA_VERSION
        yield "trace", self.trace.to_dict()
        yield "policy", self.policy
        yield "fleet", self.fleet.to_dict()
        yield "max_queue_depth", int(self.max_queue_depth)
        yield "records", [record.to_dict() for record in self.records]
        yield "report", self.report.to_dict()
        # Open-loop runs omit the key so pre-engine records (and their
        # digests) remain byte-identical.
        if self.source is not None:
            yield "source", to_builtin(dict(self.source))

    def _member_texts(self) -> Iterator[Tuple[str, str]]:
        """(key, canonical JSON text) of each payload member, in payload
        order -- the one serialization behind :meth:`payload_json`,
        :attr:`replay_digest`, :meth:`save` and :func:`verify_replay`.

        Every ``to_dict`` on the way already returns builtins, so each
        member is encoded once and never walked by ``to_builtin`` again.
        """
        for key, value in self._member_values():
            text = dump_builtin(value)
            del value  # hold one member's text, not its builtin tree too
            yield key, text

    def payload_dict(self) -> Dict:
        """The replay-deterministic portion of the record."""
        return dict(self._member_values())

    def payload_json(self) -> str:
        """Canonical JSON of the replay-deterministic portion."""
        return "".join(_object_pieces(dict(self._member_texts())))

    @property
    def replay_digest(self) -> str:
        """sha256 of :meth:`payload_json` -- equal across replays."""
        return _digest(dict(self._member_texts()))

    def to_dict(self) -> Dict:
        out = self.payload_dict()
        out["replay_digest"] = self.replay_digest
        out["study_stats"] = to_builtin(dict(self.study_stats))
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "ClusterRunResult":
        version = data.get("schema_version", RECORD_SCHEMA_VERSION)
        if version != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"record schema version {version} not supported "
                f"(expected {RECORD_SCHEMA_VERSION})"
            )
        trace = read_member(data, "trace", ArrivalTrace.from_dict)
        records = read_member(
            data, "records", lambda rows: list(map(JobRecord.from_dict, rows))
        )
        # A served run's records hold the trace's own job objects; share
        # them on load too, so a loaded run carries one copy of each job.
        jobs = {job.job_id: job for job in trace.jobs}
        for record in records:
            if jobs.get(record.job.job_id) == record.job:
                record.job = jobs[record.job.job_id]
        return cls(
            trace=trace,
            policy=read_member(data, "policy", str),
            fleet=read_member(data, "fleet", Fleet.from_dict),
            max_queue_depth=read_member(data, "max_queue_depth", int),
            records=records,
            report=read_member(data, "report", SloReport.from_dict),
            study_stats=to_builtin(dict(data.get("study_stats", {}))),
            source=to_builtin(data.get("source")),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_dict` as canonical JSON plus a newline.

        The payload members are serialized once, hashed for
        ``replay_digest`` and written as they are, with the digest and
        ``study_stats`` in their sorted positions.
        """
        members = dict(self._member_texts())
        members["replay_digest"] = dump_builtin(_digest(members))
        members["study_stats"] = canonical_json(dict(self.study_stats))
        with open(path, "w") as handle:
            handle.writelines(_object_pieces(members))
            handle.write("\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ClusterRunResult":
        """Read a record written by :meth:`save`; a malformed file raises
        one ``ValueError`` naming the file and the member."""
        return load_json_object(path, cls.from_dict)


def _object_pieces(members: Dict[str, str]) -> Iterator[str]:
    """The canonical JSON object whose members are already-encoded
    texts, in pieces: keys sorted and separators compact, exactly as
    :func:`~repro.utils.jsonutil.canonical_json` writes the whole."""
    yield "{"
    for index, key in enumerate(sorted(members)):
        yield ("," if index else "") + dump_builtin(key) + ":"
        yield members[key]
    yield "}"


def _digest(members: Dict[str, str]) -> str:
    """sha256 of the canonical object of *members*, fed piece by piece."""
    digest = hashlib.sha256()
    for piece in _object_pieces(members):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def replay(
    record: ClusterRunResult,
    cache=None,
    prefetch_jobs: Optional[int] = None,
) -> ClusterRunResult:
    """Re-run a recorded cluster run (same trace, policy, fleet, source).

    With a warm *cache* the replay resolves every per-job simulation from
    the StudyCache -- ``result.study_stats["computed"] == 0`` -- and must
    reproduce the record's :attr:`~ClusterRunResult.replay_digest`.
    A closed-loop record replays under its recorded source parameters.
    *prefetch_jobs* routes the replay's study resolutions through the
    parallel cost-model front (the batch counters land in
    ``study_stats`` and never touch the digest).
    """
    from repro.cluster.arrivals import source_from_dict
    from repro.cluster.service import ClusterService

    service = ClusterService(
        record.fleet,
        policy=record.policy,
        cache=cache,
        max_queue_depth=record.max_queue_depth,
        prefetch_jobs=prefetch_jobs,
    )
    return service.run(source_from_dict(record.trace, record.source))


def verify_replay(
    record: ClusterRunResult, replayed: ClusterRunResult
) -> Optional[str]:
    """``None`` when *replayed* reproduces *record* byte for byte, else a
    one-line description of the first divergence.

    The two sides are serialized one payload member at a time, in
    payload order, and the comparison stops at the first member that
    differs; only then are the digests computed, for the message.
    """
    fresh = replayed._member_texts()
    for key, text in record._member_texts():
        if next(fresh, None) != (key, text):
            return (
                f"replay diverged at {key!r}: digest "
                f"{record.replay_digest[:12]} != {replayed.replay_digest[:12]}"
            )
    if next(fresh, None) is not None:
        return "replay diverged (unlocated)"
    return None
