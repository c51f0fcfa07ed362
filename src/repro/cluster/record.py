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

:meth:`ClusterRunResult.save` and :meth:`ClusterRunResult.load` run with
the cyclic garbage collector paused.  A record holds one object graph
per job and none of it is garbage while it is written or read, yet the
hundreds of thousands of objects a 100k-arrival load builds would set
off several full collector passes, each walking all of them.
"""

from __future__ import annotations

import gc
import hashlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import chain, compress, repeat
from math import copysign
from operator import attrgetter, is_, methodcaller
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.cluster.arrivals import ArrivalTrace
from repro.cluster.fleet import Fleet
from repro.cluster.jobs import ClusterJob, JobRecord
from repro.cluster.metrics import SloReport
from repro.telemetry import get_tracer
from repro.utils.jsonutil import (
    BUILTIN_LEAVES,
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

    def _members(self) -> Iterator[Tuple[str, Any]]:
        """(key, the object the run holds) of each payload member, in
        payload order."""
        yield "schema_version", RECORD_SCHEMA_VERSION
        yield "trace", self.trace
        yield "policy", self.policy
        yield "fleet", self.fleet
        yield "max_queue_depth", self.max_queue_depth
        yield "records", self.records
        yield "report", self.report
        # Open-loop runs omit the key so pre-engine records (and their
        # digests) remain byte-identical.
        if self.source is not None:
            yield "source", self.source

    def _member_texts(self) -> Iterator[Tuple[str, str]]:
        """(key, canonical JSON text) of each payload member, in payload
        order -- the one serialization behind :meth:`payload_json`,
        :attr:`replay_digest` and :meth:`save`.

        Every ``to_dict`` on the way already returns builtins, so each
        member is encoded once and never walked by ``to_builtin`` again.
        Each trace job is encoded once, too: the records member splices
        the texts of the trace's job array into its rows.
        """
        jobs_text = dump_builtin([job.to_dict() for job in self.trace.jobs])
        for key, member in self._members():
            if key == "trace":
                text = _spliced(member._document(_SLOT), [jobs_text])
            elif key == "records":
                text = _records_text(member, self.trace.jobs, jobs_text)
            else:
                text = None
            if text is None:
                text = dump_builtin(_builtin_member(key, member))
            yield key, text

    def payload_dict(self) -> Dict:
        """The replay-deterministic portion of the record."""
        return {
            key: _builtin_member(key, member)
            for key, member in self._members()
        }

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
        # A served run's records hold the trace's own job objects; share
        # them on load too, so a loaded run carries one copy of each job.
        jobs = {job.job_id: job for job in trace.jobs}
        records = read_member(
            data, "records",
            lambda rows: [_load_record(row, jobs) for row in rows],
        )
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
        with get_tracer().wall_span(
            "cluster.record.save", cat="cluster"
        ), _collector_paused():
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
        with get_tracer().wall_span(
            "cluster.record.load", cat="cluster"
        ), _collector_paused():
            return load_json_object(path, cls.from_dict)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector disabled, and put
    back the state it had on every way out (a collector that was already
    off stays off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


#: How a payload member's object becomes the builtin value its text
#: encodes; members missing here are encoded as the run holds them.
_TO_BUILTIN = {
    "trace": methodcaller("to_dict"),
    "fleet": methodcaller("to_dict"),
    "max_queue_depth": int,
    "records": lambda records: [record.to_dict() for record in records],
    "report": methodcaller("to_dict"),
    "source": lambda source: to_builtin(dict(source)),
}


def _builtin_member(key: str, member: Any) -> Any:
    convert = _TO_BUILTIN.get(key)
    return member if convert is None else convert(member)


#: A stand-in value whose place in an encoded text is filled with a
#: text encoded apart; see :func:`_spliced`.
_SLOT = "\x00slot\x00"
_SLOT_TEXT = dump_builtin(_SLOT)


def _spliced(value: Any, texts: List[str]) -> Optional[str]:
    """The canonical text of *value* with its slots, in text order,
    replaced by *texts*; ``None`` when the slot's text occurs in *value*
    anywhere else (then the counts disagree)."""
    pieces = dump_builtin(value).split(_SLOT_TEXT)
    if len(pieces) != len(texts) + 1:
        return None
    joined = [""] * (2 * len(texts) + 1)
    joined[0::2] = pieces
    joined[1::2] = texts
    return "".join(joined)


def _records_text(
    records: List[JobRecord], jobs: Tuple[ClusterJob, ...], jobs_text: str
) -> Optional[str]:
    """The records member's text, each row holding the text of its job
    cut from *jobs_text* (the trace's job array) when it holds a trace
    job; ``None`` when that array does not split into one text per job.

    A job holds numbers, ``None`` and a registered app name, so ``},{``
    in the array separates two jobs and nothing else; a count that
    disagrees says otherwise, and the caller encodes the member whole.
    """
    texts = jobs_text[2:-2].split("},{") if jobs else []
    if len(texts) != len(jobs):
        return None
    by_id = {id(job): "{" + text + "}" for job, text in zip(jobs, texts)}
    return _spliced(
        [record._row(_SLOT) for record in records],
        [
            by_id.get(id(record.job)) or dump_builtin(record.job.to_dict())
            for record in records
        ],
    )


def _load_record(row: Dict, jobs: Dict[int, ClusterJob]) -> JobRecord:
    """One record row, holding the trace's job (from *jobs*, by id) when
    the row's job equals it.

    A row equal to a valid job's fields coerces to that job, so the
    row is compared with the job's fields first -- its instance dict,
    which holds exactly the fields ``to_dict`` reads -- and a job is
    built only for a row that differs; one that still coerces to the
    trace's job shares it too.
    """
    job_row = row["job"]
    # Any other id (a numpy scalar, a malformed value) takes the building
    # path, which coerces or rejects it exactly as before.
    job_id = job_row.get("job_id") if type(job_row) is dict else None
    job = jobs.get(job_id) if type(job_id) is int else None
    if job is None or job_row != vars(job):
        job = ClusterJob.from_dict(job_row)
        if jobs.get(job.job_id) == job:
            job = jobs[job.job_id]
    return JobRecord.from_dict(row, job=job)


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

    with get_tracer().wall_span("cluster.replay.run", cat="cluster"):
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

    The payload members are compared in payload order without encoding
    either run, and the comparison stops at the first member that
    differs; only then are the digests computed, for the message.  A
    member both runs hold as the same object is equal unread (a replay
    shares the record's trace and fleet, and every record's job);
    the rest compare as the builtin values they encode, the way
    :func:`_encodes_same` decides -- the records as typed columns first
    (:func:`_same_records`).
    """
    with get_tracer().wall_span("cluster.verify", cat="cluster"):
        return _first_divergence(record, replayed)


def _first_divergence(
    record: ClusterRunResult, replayed: ClusterRunResult
) -> Optional[str]:
    fresh = replayed._members()
    for key, member in record._members():
        other = next(fresh, None)
        if other is None or not _same_member(key, member, other[1]):
            return (
                f"replay diverged at {key!r}: digest "
                f"{record.replay_digest[:12]} != {replayed.replay_digest[:12]}"
            )
    if next(fresh, None) is not None:
        return "replay diverged (unlocated)"
    return None


def _same_member(key: str, ours: Any, theirs: Any) -> bool:
    """Whether payload member *key* encodes the same text on both runs."""
    if ours is theirs:
        return True
    if key == "records":
        return _same_records(ours, theirs)
    return _encodes_same(
        _builtin_member(key, ours), _builtin_member(key, theirs)
    )


def _same_records(ours: List[JobRecord], theirs: List[JobRecord]) -> bool:
    """Whether two record lists encode the same text.

    Lists whose records hold the same jobs, position by position (a
    replay's records hold its record's jobs), are compared as columns
    first: every scalar outcome field as one list of typed values, and
    every ``extra`` by :func:`_encodes_same`.  Lists that differ there
    may still encode alike (a numpy scalar, ``-0.0`` omitted at its
    default), so they are decided record by record by
    :func:`_same_record`.
    """
    if len(ours) != len(theirs):
        return False
    if (
        all(map(is_, map(_JOB_OF, ours), map(_JOB_OF, theirs)))
        and _typed_same(
            list(chain.from_iterable(map(_SCALARS_OF, ours))),
            list(chain.from_iterable(map(_SCALARS_OF, theirs))),
        )
        and all(
            map(_encodes_same, map(_EXTRA_OF, ours), map(_EXTRA_OF, theirs))
        )
    ):
        return True
    return all(map(_same_record, ours, theirs))


def _typed_same(ours: List, theirs: List) -> bool:
    """Whether two lists hold equal builtin leaves of the same types,
    every float bit for bit: values that encode the same texts."""
    if ours != theirs:
        return False
    kinds = list(map(type, ours))
    if kinds != list(map(type, theirs)):
        return False
    if not BUILTIN_LEAVES.issuperset(kinds):
        return False
    # ``==`` takes -0.0 for 0.0, and their texts differ.
    floats = list(map(is_, kinds, repeat(float)))
    return (
        array("d", compress(ours, floats)).tobytes()
        == array("d", compress(theirs, floats)).tobytes()
    )


def _same_record(ours: JobRecord, theirs: JobRecord) -> bool:
    """Whether two job records encode the same text.

    ``to_dict`` reads nothing but the fields, so two records holding
    the same job whose other fields encode alike encode alike; any
    other pair is compared on its ``to_dict()``.  (The fields are read
    one by one: ``vars()`` would give every record a ``__dict__`` to
    keep.)
    """
    if ours.job is theirs.job and all(
        _encodes_same(getattr(ours, name), getattr(theirs, name))
        for name in _OUTCOME_FIELDS
    ):
        return True
    return _encodes_same(ours.to_dict(), theirs.to_dict())


#: The fields of a job record besides its job.
_OUTCOME_FIELDS = tuple(f.name for f in fields(JobRecord) if f.name != "job")
#: Readers of a record's job, its ``extra``, and its other outcome
#: fields (as one tuple).
_JOB_OF = attrgetter("job")
_EXTRA_OF = attrgetter("extra")
_SCALARS_OF = attrgetter(
    *(name for name in _OUTCOME_FIELDS if name != "extra")
)
#: Builtin types equal in text exactly when equal in type and value.
_SCALARS = frozenset((str, int, bool, type(None)))
#: Types :func:`_encodes_same` compares without encoding.
_TYPED = _SCALARS | {float, dict, list, tuple}
_ARRAYS = (list, tuple)


def _encodes_same(a: Any, b: Any) -> bool:
    """Whether *a* and *b* encode the same canonical JSON text, for
    values canonical JSON can encode, without encoding the builtin
    parts.

    One object encodes as itself.  ``str``, ``int``, ``bool`` and
    ``None`` compare by type and value (``1`` and ``1.0`` differ, so do
    ``True`` and ``1``); ``float`` by value and the sign of zero;
    ``dict`` by key set, then value by value; ``list`` and ``tuple``
    element by element (both encode as arrays).  Two different builtin
    types never encode alike; anything else -- a numpy scalar, a dict
    keyed by numbers -- compares by its text.
    """
    if a is b:
        return True
    kind = type(a)
    if kind is type(b):
        if kind in _SCALARS:
            return a == b
        if kind is float:
            return a == b and (a != 0.0 or copysign(1.0, a) == copysign(1.0, b))
        if kind is dict:
            return _dicts_encode_same(a, b)
        if kind is list or kind is tuple:
            return len(a) == len(b) and all(map(_encodes_same, a, b))
    elif kind in _ARRAYS and type(b) in _ARRAYS:
        return len(a) == len(b) and all(map(_encodes_same, a, b))
    elif kind in _TYPED and type(b) in _TYPED:
        return False
    return canonical_json(a) == canonical_json(b)


def _dicts_encode_same(a: Dict, b: Dict) -> bool:
    # One encoded member per entry, so lengths must agree.  Sorting the
    # keys of an encodable dict never compares a str with a non-str, so
    # its keys are all strings or none are: the first key tells.
    if len(a) != len(b):
        return False
    if not a:
        return True
    if not (isinstance(next(iter(a)), str) and isinstance(next(iter(b)), str)):
        return canonical_json(a) == canonical_json(b)
    if a.keys() != b.keys():
        return False
    for key, value in a.items():
        other = b[key]
        if value is not other and not _encodes_same(value, other):
            return False
    return True
