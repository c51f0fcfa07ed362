"""Campaign execution: parallel fan-out with caching, retries, timeouts.

:func:`run_campaign` resolves a list of :class:`StudySpec` units against
an optional persistent :class:`StudyCache`, then executes the misses --
in a ``concurrent.futures.ProcessPoolExecutor`` when ``jobs > 1``, or
serially in-process when ``jobs == 1`` (the fallback path is
:meth:`StudySpec.run`, the memoized pipeline a direct
:func:`repro.core.experiment.run_app_study` call takes, so single-job
campaigns return the very objects such a call would).  It is the one
resolver of a study: the cluster cost model resolves through it too,
and every resolved study is registered in the process memo.  Worker
failures are retried a bounded number of times; a unit that exhausts
its retries is recorded in the manifest with the original exception
and does **not** abort its sibling units.  That holds for a worker process that exits
abruptly (a crash, ``os._exit``, an OOM kill) too: it breaks the whole
pool, so the executor starts a fresh one and re-runs the units that were
in flight one at a time, and only the unit that kills a worker running
alone is charged for it.  Every completed unit is persisted to the cache
as soon as it resolves, so an interrupted campaign resumes where it
stopped.

Workers exchange JSON study documents (not pickled ``AppStudy`` objects):
the subprocess runs the pipeline and returns
:func:`repro.core.serialization.study_to_dict` output, which the parent
both caches (the cache stores its trace as a column table and packs its
float arrays, exactly) and rebuilds through the same task-record decoder
-- a parallel cold run and a warm cache read produce the same objects by
construction.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.experiment import AppStudy, store_study
from repro.core.serialization import study_from_dict, study_to_dict
from repro.orchestrator.cache import StudyCache
from repro.orchestrator.manifest import (
    CACHED,
    COMPUTED,
    FAILED,
    RunManifest,
    UnitRecord,
)
from repro.orchestrator.spec import CACHE_SCHEMA_VERSION, StudySpec
from repro.telemetry import get_tracer

#: Callback invoked with a UnitRecord as each unit resolves.
ProgressFn = Callable[[UnitRecord], None]
#: Unit worker: canonical spec fields -> JSON study document.
WorkerFn = Callable[[Dict], Dict]

#: Poll granularity (seconds) when per-unit timeouts are armed.
_TIMEOUT_TICK_S = 0.1


def compute_study_document(spec_fields: Dict) -> Dict:
    """Default unit worker: run the full pipeline, return the document.

    Module-level (not a closure) so ``ProcessPoolExecutor`` can ship it
    to workers by reference.
    """
    spec = StudySpec.from_dict(spec_fields)
    return study_to_dict(spec.run())


class CampaignError(RuntimeError):
    """A campaign unit failed after exhausting its retries."""


@dataclass
class CampaignResult:
    """Studies plus the manifest of how each unit resolved."""

    manifest: RunManifest
    studies: "Dict[StudySpec, AppStudy]" = field(default_factory=dict)
    errors: "Dict[StudySpec, BaseException]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def study(self, spec: StudySpec) -> AppStudy:
        """The study for *spec*; raises if the unit failed or is unknown."""
        if spec in self.studies:
            return self.studies[spec]
        if spec in self.errors:
            raise CampaignError(f"unit failed: {spec.label}") from self.errors[spec]
        raise KeyError(f"spec not part of this campaign: {spec.label}")

    def raise_failures(self) -> None:
        """Raise :class:`CampaignError` if any unit failed; its message
        ends with the first failed unit's error."""
        if self.errors:
            error = next(iter(self.errors.values()))
            labels = ", ".join(s.label for s in self.errors)
            raise CampaignError(
                f"{len(self.errors)} campaign unit(s) failed: {labels} -- "
                f"{type(error).__name__}: {error}"
            ) from error


@dataclass
class _Unit:
    """Mutable in-flight bookkeeping for one miss."""

    spec: StudySpec
    attempts: int = 0
    started_s: Optional[float] = None
    submitted_s: float = 0.0
    #: In flight when a worker died beside other units: runs by itself
    #: until it resolves.
    alone: bool = False


def run_campaign(
    specs: Iterable[StudySpec],
    jobs: int = 1,
    cache: Optional[Union[StudyCache, str]] = None,
    retries: int = 1,
    timeout_s: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    worker: Optional[WorkerFn] = None,
) -> CampaignResult:
    """Resolve every spec, in parallel when ``jobs > 1``.

    Parameters
    ----------
    specs:
        Units to resolve; duplicates are collapsed (order preserved).
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process via
        the memoized :meth:`StudySpec.run` -- no subprocesses, identical
        results and object identity to a direct ``run_app_study`` call.
    cache:
        A :class:`StudyCache` (or a directory path for one).  Hits skip
        execution entirely; every computed unit is persisted immediately.
        ``None`` disables persistence.
    retries:
        Re-attempts after a unit's first failure (so a unit runs at most
        ``retries + 1`` times).  The last exception is recorded when
        exhausted; sibling units always continue.
    timeout_s:
        Optional per-attempt wall clock limit (parallel mode only;
        measured from dispatch to a worker).  A timed-out attempt counts
        as a failure and is retried like any other.  Its worker is
        stopped: every worker is terminated and the pool restarted, and
        each attempt in flight beside it runs again uncharged.
    progress:
        Callback receiving each unit's :class:`UnitRecord` as it
        resolves (cache hits first, then computed/failed units).
    worker:
        Override the unit worker (tests inject faults here).  Must be a
        module-level callable mapping canonical spec fields to a study
        document.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
        cache = StudyCache(cache)

    ordered: List[StudySpec] = []
    seen = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            ordered.append(spec)

    # NB: StudyCache defines __len__, so an empty cache is falsy -- every
    # presence check here must be `is not None`.
    schema_version = (
        cache.schema_version if cache is not None else CACHE_SCHEMA_VERSION
    )
    manifest = RunManifest(
        jobs=jobs,
        cache_dir=str(cache.root) if cache is not None else None,
        schema_version=schema_version,
    )
    result = CampaignResult(manifest=manifest)
    campaign_start = time.perf_counter()
    tracer = get_tracer()

    def resolve(record: UnitRecord) -> None:
        manifest.add(record)
        if tracer.enabled:
            # One wall-clock span per unit, on a per-status track; the
            # span ends when the unit resolves and covers its wall time.
            resolved_at = time.perf_counter() - campaign_start
            tracer.span(
                record.label,
                resolved_at - record.wall_time_s,
                record.wall_time_s,
                cat="orchestrator",
                pid="campaign",
                tid=record.status,
                wall=True,
                status=record.status,
                attempts=record.attempts,
                error=record.error,
            )
        if progress is not None:
            progress(record)

    # ------------------------------------------------------------------ #
    # cache pass
    # ------------------------------------------------------------------ #
    misses: List[StudySpec] = []
    for spec in ordered:
        if cache is not None:
            t0 = time.perf_counter()
            study = cache.get(spec)
            if study is not None:
                result.studies[spec] = study
                store_study(spec, study)
                resolve(
                    UnitRecord(
                        key=spec.cache_key(schema_version),
                        label=spec.label,
                        spec=spec.to_dict(),
                        status=CACHED,
                        wall_time_s=time.perf_counter() - t0,
                    )
                )
                continue
        misses.append(spec)

    # ------------------------------------------------------------------ #
    # execution pass
    # ------------------------------------------------------------------ #
    if misses and jobs == 1:
        _run_serial(misses, result, cache, retries, worker, resolve, schema_version)
    elif misses:
        _run_parallel(
            misses, result, cache, jobs, retries, timeout_s,
            worker or compute_study_document, resolve, schema_version,
        )

    manifest.wall_time_s = time.perf_counter() - campaign_start
    return result


# ---------------------------------------------------------------------- #
# serial fallback
# ---------------------------------------------------------------------- #


def _run_serial(
    misses: List[StudySpec],
    result: CampaignResult,
    cache: Optional[StudyCache],
    retries: int,
    worker: Optional[WorkerFn],
    resolve: ProgressFn,
    schema_version: int,
) -> None:
    for spec in misses:
        start = time.perf_counter()
        attempts = 0
        last_error: Optional[BaseException] = None
        study: Optional[AppStudy] = None
        document: Optional[Dict] = None
        while attempts <= retries:
            attempts += 1
            try:
                if worker is None:
                    study = spec.run()
                else:
                    document = worker(spec.to_dict())
                    study = study_from_dict(document)
                break
            except Exception as exc:
                last_error = exc
                study = None
        elapsed = time.perf_counter() - start
        key = spec.cache_key(schema_version)
        if study is None:
            assert last_error is not None
            result.errors[spec] = last_error
            resolve(UnitRecord(
                key=key, label=spec.label, spec=spec.to_dict(), status=FAILED,
                wall_time_s=elapsed, attempts=attempts, error=repr(last_error),
            ))
            continue
        if cache is not None:
            cache.put_document(spec, document or study_to_dict(study))
        result.studies[spec] = study
        store_study(spec, study)
        resolve(UnitRecord(
            key=key, label=spec.label, spec=spec.to_dict(), status=COMPUTED,
            wall_time_s=elapsed, attempts=attempts,
        ))


# ---------------------------------------------------------------------- #
# process-pool execution
# ---------------------------------------------------------------------- #


def _run_parallel(
    misses: List[StudySpec],
    result: CampaignResult,
    cache: Optional[StudyCache],
    jobs: int,
    retries: int,
    timeout_s: Optional[float],
    worker: WorkerFn,
    resolve: ProgressFn,
    schema_version: int,
) -> None:
    queue: List[_Unit] = [_Unit(spec=spec) for spec in misses]
    queue.reverse()  # pop() from the end keeps submission order

    def finish(unit: _Unit, status: str, error: Optional[BaseException]) -> None:
        elapsed = time.perf_counter() - unit.started_s
        if error is not None:
            result.errors[unit.spec] = error
        resolve(UnitRecord(
            key=unit.spec.cache_key(schema_version),
            label=unit.spec.label,
            spec=unit.spec.to_dict(),
            status=status,
            wall_time_s=elapsed,
            attempts=unit.attempts,
            error=repr(error) if error is not None else None,
        ))

    pool = ProcessPoolExecutor(max_workers=jobs)
    active: Dict[Future, _Unit] = {}

    def retry_or_fail(unit: _Unit, exc: BaseException) -> None:
        if unit.attempts <= retries:
            queue.append(unit)  # next to be submitted
        else:
            finish(unit, FAILED, exc)

    def collect(future: Future, unit: _Unit) -> None:
        try:
            document = future.result()
            study = study_from_dict(document)
        except Exception as exc:
            retry_or_fail(unit, exc)
            return
        if cache is not None:
            cache.put_document(unit.spec, document)
        result.studies[unit.spec] = study
        store_study(unit.spec, study)
        finish(unit, COMPUTED, None)

    def replace_pool() -> List[Tuple[Future, _Unit]]:
        """Start a fresh pool; the (future, unit) pairs the old one held,
        each future settled."""
        nonlocal pool
        # Joins the pool's manager thread, which fails every pending
        # future before it exits: each held future is settled after this.
        pool.shutdown(wait=True)
        pool = ProcessPoolExecutor(max_workers=jobs)
        held = list(active.items())
        active.clear()
        return held

    def restart() -> None:
        """Replace a pool a worker died in, and settle the units it held.

        The dead worker's unit cannot be told apart from its siblings:
        every future in flight fails alike.  A break with one unit in
        flight is that unit's attempt; after a break with several, each
        of them gets its attempt back and re-runs alone, so a unit that
        kills its worker ends up charged only for breaks it caused.
        """
        held = replace_pool()
        broken = []
        for future, unit in held:
            if isinstance(future.exception(), BrokenProcessPool):
                broken.append((future, unit))
            else:
                collect(future, unit)
        if len(broken) == 1:
            future, unit = broken[0]
            retry_or_fail(unit, future.exception())
            return
        for _, unit in reversed(broken):
            unit.attempts -= 1
            unit.alone = True
            queue.append(unit)

    def stop(expired: List[Future]) -> None:
        """Charge each timed-out attempt, and stop the workers running it.

        A running attempt cannot be cancelled, and nothing tells which
        worker runs it, so every worker is terminated and the pool
        replaced as after a break.  A sibling that finished meanwhile is
        collected; one still in flight gets its attempt back and is
        queued again.
        """
        for future in expired:
            unit = active.pop(future)
            retry_or_fail(
                unit,
                TimeoutError(
                    f"unit {unit.spec.label} exceeded "
                    f"{timeout_s:g}s (attempt {unit.attempts})"
                ),
            )
        _terminate_workers(pool)
        for future, unit in reversed(replace_pool()):
            if isinstance(future.exception(), BrokenProcessPool):
                unit.attempts -= 1
                queue.append(unit)
            else:
                collect(future, unit)

    def capacity() -> int:
        # Keep at most `jobs` units in flight so the per-attempt timeout
        # clock starts when a worker actually picks the unit up.
        units = queue + list(active.values())
        return 1 if any(unit.alone for unit in units) else jobs

    def fill() -> None:
        while queue and len(active) < capacity():
            unit = queue.pop()
            try:
                future = pool.submit(worker, unit.spec.to_dict())
            except BrokenProcessPool:
                queue.append(unit)
                restart()
                continue
            unit.attempts += 1
            unit.submitted_s = time.perf_counter()
            if unit.started_s is None:
                unit.started_s = unit.submitted_s
            active[future] = unit

    try:
        fill()
        while active:
            if timeout_s is None:
                done, _ = wait(active, return_when=FIRST_COMPLETED)
            else:
                done, _ = wait(
                    active, timeout=_TIMEOUT_TICK_S, return_when=FIRST_COMPLETED
                )
            if any(isinstance(f.exception(), BrokenProcessPool) for f in done):
                restart()
            else:
                for future in done:
                    collect(future, active.pop(future))
            if timeout_s is not None:
                now = time.perf_counter()
                expired = [
                    f for f, u in active.items()
                    if now - u.submitted_s >= timeout_s
                ]
                if expired:
                    stop(expired)
            fill()
    finally:
        pool.shutdown()


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Terminate every worker process of *pool* -- the only way to stop
    an attempt that is already running.  The pool breaks: each future
    it still holds fails with ``BrokenProcessPool``."""
    # ``_processes`` maps pid -> Process; the executor has no public way
    # to reach its workers before Python 3.14's ``terminate_workers``.
    for process in list((pool._processes or {}).values()):
        process.terminate()
