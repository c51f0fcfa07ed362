"""Seeded arrival traces: the reproducible workload unit.

An :class:`ArrivalTrace` is a canonically ordered sequence of
:class:`~repro.cluster.jobs.ClusterJob` arrivals.  Traces are generated
from a seed (Poisson arrivals with app/priority/deadline mixes drawn
from decorrelated child streams) or loaded from canonical JSON, and are
content-addressed by sha256 over that JSON -- the same trace always
hashes identically, so a recorded cluster run names exactly the workload
it served.

Preset workloads (:data:`WORKLOADS`) cover the shapes the roadmap asks
for: a steady trickle, an open-loop burst, a priority-skewed mix and a
deadline-tight batch.  Every preset samples dataset seeds from a small
pool on purpose: production streams re-run the same datasets over and
over, which is what makes the StudyCache dedup per-job simulations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Callable, Dict, List, Optional, Protocol, Sequence, Tuple, Union,
)

from repro.cluster.jobs import ClusterJob
from repro.utils.jsonutil import canonical_json, read_member
from repro.utils.rng import derive_rng, spawn_seed

#: Bump when the trace JSON schema changes (invalidates recorded runs).
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ArrivalTrace:
    """A named, seeded, canonically ordered stream of job arrivals."""

    name: str
    seed: int
    jobs: Tuple[ClusterJob, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name))
        object.__setattr__(self, "seed", int(self.seed))
        jobs = tuple(sorted(self.jobs, key=attrgetter("arrival_s", "job_id")))
        object.__setattr__(self, "jobs", jobs)
        if len({job.job_id for job in jobs}) != len(jobs):
            raise ValueError("job ids must be unique within a trace")

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def horizon_s(self) -> float:
        """Last arrival instant (0.0 for an empty trace)."""
        return self.jobs[-1].arrival_s if self.jobs else 0.0

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict:
        return self._document([job.to_dict() for job in self.jobs])

    def _document(self, jobs: object) -> Dict:
        """:meth:`to_dict` with *jobs* as the value of its ``jobs`` key."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "jobs": jobs,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ArrivalTrace":
        version = data.get("schema_version", TRACE_SCHEMA_VERSION)
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema version {version} not supported "
                f"(expected {TRACE_SCHEMA_VERSION})"
            )
        # __post_init__ (here and on each job) coerces every field to
        # its builtin type, so the document is never walked first.
        return cls(
            name=read_member(data, "name", str),
            seed=read_member(data, "seed", int),
            jobs=read_member(
                data, "jobs",
                lambda rows: tuple(map(ClusterJob.from_dict, rows)),
            ),
        )

    def to_json(self) -> str:
        """Canonical JSON encoding (stable bytes; see trace_key)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ArrivalTrace":
        return cls.from_dict(json.loads(text))

    @property
    def trace_key(self) -> str:
        """sha256 content address of the canonical JSON encoding."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# generation
# ---------------------------------------------------------------------- #

#: Default app mix: the cheap half of the paper's Table 1, weighted the
#: way a production stream would repeat its popular workloads.
DEFAULT_APP_MIX: Tuple[Tuple[str, float], ...] = (
    ("histogram", 0.4),
    ("wordcount", 0.3),
    ("linear_regression", 0.2),
    ("kmeans", 0.1),
)


def generate_trace(
    name: str,
    seed: int,
    num_jobs: int,
    mean_gap_s: float = 20.0,
    apps: Sequence[Tuple[str, float]] = DEFAULT_APP_MIX,
    scale: float = 0.05,
    dataset_seeds: Sequence[int] = (7, 9),
    priority_levels: int = 1,
    deadline_fraction: float = 0.0,
    deadline_slack_s: Tuple[float, float] = (90.0, 240.0),
    input_mb_range: Tuple[float, float] = (32.0, 128.0),
    burstiness: float = 0.0,
) -> ArrivalTrace:
    """Deterministically sample an arrival trace.

    Arrivals are Poisson with mean gap *mean_gap_s*; ``burstiness`` in
    [0, 1) compresses a random half of the gaps toward zero (open-loop
    bursts) while stretching the rest, preserving the mean load.  Apps,
    dataset seeds, priorities, deadlines and input sizes are drawn from
    decorrelated child streams of *seed*, so changing one knob never
    reshuffles the others.
    """
    if num_jobs < 0:
        raise ValueError(f"num_jobs must be >= 0, got {num_jobs}")
    if not 0.0 <= burstiness < 1.0:
        raise ValueError(f"burstiness must be in [0, 1), got {burstiness}")
    if not dataset_seeds:
        raise ValueError("dataset_seeds must be non-empty")
    names = [app for app, _ in apps]
    weights = [float(w) for _, w in apps]
    total = sum(weights)
    probabilities = [w / total for w in weights]

    gap_rng = derive_rng(spawn_seed(seed, name, "gaps"))
    app_rng = derive_rng(spawn_seed(seed, name, "apps"))
    meta_rng = derive_rng(spawn_seed(seed, name, "meta"))

    jobs: List[ClusterJob] = []
    now = 0.0
    for job_id in range(num_jobs):
        gap = gap_rng.exponential(mean_gap_s)
        if burstiness > 0.0:
            if gap_rng.random() < 0.5:
                gap *= 1.0 - burstiness
            else:
                gap *= 1.0 + burstiness
        now += gap
        app = names[int(app_rng.choice(len(names), p=probabilities))]
        dataset_seed = int(
            dataset_seeds[int(meta_rng.integers(len(dataset_seeds)))]
        )
        priority = int(meta_rng.integers(priority_levels)) if priority_levels > 1 else 0
        deadline: Optional[float] = None
        if deadline_fraction > 0.0 and meta_rng.random() < deadline_fraction:
            low, high = deadline_slack_s
            deadline = now + float(meta_rng.uniform(low, high))
        low_mb, high_mb = input_mb_range
        jobs.append(
            ClusterJob(
                job_id=job_id,
                app=app,
                arrival_s=now,
                scale=scale,
                seed=dataset_seed,
                priority=priority,
                deadline_s=deadline,
                input_mb=float(meta_rng.uniform(low_mb, high_mb)),
            )
        )
    return ArrivalTrace(name=name, seed=seed, jobs=tuple(jobs))


# ---------------------------------------------------------------------- #
# preset workloads
# ---------------------------------------------------------------------- #


def _smoke(seed: int) -> ArrivalTrace:
    """Tiny CI workload: 8 jobs, 2 dataset seeds, a few deadlines."""
    return generate_trace(
        "smoke", seed, num_jobs=8, mean_gap_s=15.0,
        dataset_seeds=(9,), deadline_fraction=0.5, priority_levels=2,
    )


def _steady(seed: int) -> ArrivalTrace:
    """A steady trickle near the fleet's service rate."""
    return generate_trace(
        "steady", seed, num_jobs=24, mean_gap_s=20.0,
        deadline_fraction=0.25, priority_levels=2,
    )


def _burst(seed: int) -> ArrivalTrace:
    """Open-loop burst: same mean load, gaps squeezed into clumps."""
    return generate_trace(
        "burst", seed, num_jobs=32, mean_gap_s=12.0, burstiness=0.85,
        deadline_fraction=0.25, priority_levels=3,
    )


def _priority_mix(seed: int) -> ArrivalTrace:
    """Heavily priority-skewed mix (latency-tier emulation)."""
    return generate_trace(
        "priority_mix", seed, num_jobs=24, mean_gap_s=15.0,
        priority_levels=4, deadline_fraction=0.1,
    )


def _deadline_tight(seed: int) -> ArrivalTrace:
    """Every job carries a deadline, with tight slack."""
    return generate_trace(
        "deadline_tight", seed, num_jobs=24, mean_gap_s=18.0,
        deadline_fraction=1.0, deadline_slack_s=(60.0, 150.0),
        priority_levels=2,
    )


def _heavy(seed: int) -> ArrivalTrace:
    """Sustained pressure: 64 jobs well above the smoke fleet's rate."""
    return generate_trace(
        "heavy", seed, num_jobs=64, mean_gap_s=8.0, burstiness=0.5,
        deadline_fraction=0.3, priority_levels=3,
        dataset_seeds=(7, 9, 11),
    )


# ---------------------------------------------------------------------- #
# sources: how a trace meets the service
# ---------------------------------------------------------------------- #


class Source(Protocol):
    """How jobs reach the cluster, and what happens on backpressure.

    A source wraps one :class:`ArrivalTrace` and answers a single
    question the engine asks when admission fails: *does this job come
    back, and when?*  An open-loop source never re-submits (rejection is
    terminal load shedding); a closed-loop source models clients that
    retry with backoff.
    """

    trace: ArrivalTrace

    def retry_at(
        self, job: ClusterJob, now: float, attempts: int
    ) -> Optional[float]:
        """Next re-submission instant after a failed admission attempt
        number *attempts*, or ``None`` when the job gives up."""
        ...

    def to_dict(self) -> Optional[Dict]:
        """Canonical config for the run record (``None`` = open loop,
        keeping pre-source records byte-identical)."""
        ...


@dataclass(frozen=True)
class OpenLoopSource:
    """The legacy discipline: a backpressured job is shed, terminally."""

    trace: ArrivalTrace

    def retry_at(self, job, now, attempts):
        return None

    def to_dict(self):
        return None


@dataclass(frozen=True)
class ClosedLoopSource:
    """Clients that re-submit backpressured jobs with capped, seeded
    exponential backoff.

    Attempt *k*'s backoff is ``min(cap, base * 2**(k-1))`` scaled by a
    jitter factor in ``[1-jitter, 1+jitter]`` drawn from a stream keyed
    on ``(seed, job_id, attempt)`` -- fully deterministic, and
    independent of event order, so replays reproduce every retry instant
    bit for bit.  After *retry_limit* failed re-submissions the job is
    rejected terminally.
    """

    trace: ArrivalTrace
    retry_limit: int = 3
    backoff_base_s: float = 5.0
    backoff_cap_s: float = 120.0
    jitter: float = 0.5
    seed: int = 7

    def __post_init__(self) -> None:
        object.__setattr__(self, "retry_limit", int(self.retry_limit))
        object.__setattr__(self, "backoff_base_s", float(self.backoff_base_s))
        object.__setattr__(self, "backoff_cap_s", float(self.backoff_cap_s))
        object.__setattr__(self, "jitter", float(self.jitter))
        object.__setattr__(self, "seed", int(self.seed))
        if self.retry_limit < 0:
            raise ValueError(
                f"retry_limit must be >= 0, got {self.retry_limit}"
            )
        if self.backoff_base_s <= 0.0:
            raise ValueError(
                f"backoff_base_s must be > 0, got {self.backoff_base_s}"
            )
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_cap_s ({self.backoff_cap_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_s(self, job: ClusterJob, attempts: int) -> float:
        """The (jittered, capped) backoff after attempt *attempts*."""
        base = min(
            self.backoff_cap_s, self.backoff_base_s * 2.0 ** (attempts - 1)
        )
        if self.jitter == 0.0:
            return base
        rng = derive_rng(
            spawn_seed(self.seed, "retry", str(job.job_id), str(attempts))
        )
        factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base * factor

    def retry_at(self, job, now, attempts):
        if attempts > self.retry_limit:
            return None
        return now + self.backoff_s(job, attempts)

    def to_dict(self):
        return {
            "kind": "closed",
            "retry_limit": self.retry_limit,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "jitter": self.jitter,
            "seed": self.seed,
        }


def make_source(
    trace: ArrivalTrace, source: Union[str, Source, None] = "open", **kwargs
) -> Source:
    """Build a source over *trace* from a name ('open'/'closed'), an
    existing source (re-wrapped onto *trace*), or ``None`` (open)."""
    if source is None or source == "open":
        if kwargs:
            raise ValueError(
                f"open-loop sources take no options, got {sorted(kwargs)}"
            )
        return OpenLoopSource(trace)
    if source == "closed":
        return ClosedLoopSource(trace, **kwargs)
    if isinstance(source, str):
        raise ValueError(
            f"unknown source kind {source!r}; use 'open' or 'closed'"
        )
    if kwargs:
        raise ValueError("source options only apply to source names")
    if source.trace is not trace and source.trace.trace_key != trace.trace_key:
        raise ValueError("source wraps a different trace")
    return source


def source_from_dict(
    trace: ArrivalTrace, data: Optional[Dict]
) -> Source:
    """Rebuild a run record's source over *trace* (``None`` = open)."""
    if data is None:
        return OpenLoopSource(trace)
    data = dict(data)
    kind = data.pop("kind", "open")
    if kind == "open":
        return OpenLoopSource(trace)
    if kind == "closed":
        return ClosedLoopSource(trace, **data)
    raise ValueError(f"unknown source kind {kind!r} in record")


# ---------------------------------------------------------------------- #
# preset registry
# ---------------------------------------------------------------------- #

#: Preset workload registry: name -> seed -> ArrivalTrace.
WORKLOADS: Dict[str, Callable[[int], ArrivalTrace]] = {
    "smoke": _smoke,
    "steady": _steady,
    "burst": _burst,
    "priority_mix": _priority_mix,
    "deadline_tight": _deadline_tight,
    "heavy": _heavy,
}


def preset_trace(name: str, seed: int = 7) -> ArrivalTrace:
    """Build a preset workload trace by name."""
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        )
    return WORKLOADS[name](seed)
