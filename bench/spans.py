"""Outside-in layer spans for the benchmark's traced runs.

Nothing here touches the program's own tracer: ``--trace`` wraps the
public names each layer is looked up by (``repro.core.experiment.simulate``,
``repro.sim.system.MemorySystem``, ``StudyCache.get`` ...) with timing
shims from this file, records one span per call in memory, and puts
every original attribute back on exit.  The cluster layers that have no
patchable name of their own -- cost-model estimates and policy choices --
are timed by :class:`TimedCostModel` and :class:`TimedPolicy`, handed to
``ClusterService`` through its public ``cost_model`` / ``policy``
parameters.

A span is ``[name, start, end, parent, rep, op]``: *parent* is the index
of the enclosing span in the recorder's list (-1 for a root), *rep* the
measured repetition and *op* the operation (study app, cluster step) it
belongs to.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Collection, Dict, Iterator, List, Optional, Sequence

import repro.core.experiment as experiment
import repro.orchestrator.cache as cache_module
import repro.orchestrator.executor as executor
import repro.sim.memory as memory
import repro.sim.system as system
from repro.apps.base import BenchmarkApp
from repro.cluster import CostModel, service
from repro.cluster.record import ClusterRunResult
from repro.faults.engine import FaultEngine
from repro.orchestrator.cache import StudyCache
from repro.power.governor import CapGovernor

NAME, START, END, PARENT, REP, OP = range(6)

#: Spans per name written to the Chrome trace file; the per-layer table
#: always covers every span.  Hot boundaries (estimates, policy calls)
#: run ~10^5 times per cycle and would bloat the file past usefulness.
EXPORT_CAP_PER_NAME = 2000

#: (owner, attribute, span name) of every patched layer boundary.
#: Module-level functions are patched in the module that *calls* them
#: (the name its caller looks up); methods are patched on their class.
BOUNDARIES = (
    (BenchmarkApp, "run", "apps.run"),
    (experiment, "build_nvfi_mesh", "core.platform_build"),
    (experiment, "build_vfi_mesh", "core.platform_build"),
    (experiment, "build_vfi_winoc", "core.platform_build"),
    (experiment, "design_vfi", "vfi.design"),
    (experiment, "simulate", "sim.simulate"),
    (system, "MemorySystem", "sim.memory_init"),
    (memory, "DenseLatencyModel", "noc.dense_tables"),
    (memory, "PairwiseEnergy", "noc.dense_tables"),
    (FaultEngine, "activate_due", "faults.hook"),
    (FaultEngine, "effective_platform", "faults.hook"),
    (CapGovernor, "poll", "power.governor.poll"),
    (CapGovernor, "effective_platform", "power.governor.view"),
    (executor, "study_to_dict", "serialization.to_dict"),
    (cache_module, "study_to_dict", "serialization.to_dict"),
    (cache_module, "study_from_dict", "serialization.from_dict"),
    (StudyCache, "put_document", "orchestrator.cache_put"),
    (StudyCache, "get", "orchestrator.cache_get"),
    (service, "slo_report", "cluster.slo_report"),
    (ClusterRunResult, "payload_json", "cluster.record.payload_json"),
    (ClusterRunResult, "replay_digest", "cluster.record.digest"),
)


class Recorder:
    """In-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.rep: Optional[int] = None
        self.op: Optional[str] = None

    def open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, perf_counter(), 0.0, stack[-1] if stack else -1,
             self.rep, self.op]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        if op is not None:
            self.op = op
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        """*fn* with every call recorded as a *name* span."""
        open_, close = self.open, self.close

        def timed(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return timed


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Host seconds one recorded span adds to a call (median of
    *repeats* timings of a wrapped no-op against the bare no-op)."""
    recorder = Recorder()

    def noop():
        return None

    wrapped = recorder.wrap("probe", noop)
    costs = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append(max(perf_counter() - start - bare, 0.0) / calls)
        recorder.spans.clear()
    return statistics.median(costs)


class NullRecorder:
    """Untraced runs: a span is a no-op context."""

    rep = None
    op = None

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        yield


# ---------------------------------------------------------------------- #
# arithmetic
# ---------------------------------------------------------------------- #


def layer_table(
    spans: Sequence[Sequence], reps: Optional[Collection[int]] = None
) -> Dict[str, Dict[str, float]]:
    """Total seconds, self seconds and calls per span name.

    *spans* is a recorder's full list (parents are list indices);
    *reps*, when given, restricts the tally to spans of those
    repetitions.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] = (
                child_time.get(span[PARENT], 0.0) + span[END] - span[START]
            )
    table: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if reps is not None and span[REP] not in reps:
            continue
        duration = span[END] - span[START]
        row = table.setdefault(
            span[NAME], {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(index, 0.0)
        row["calls"] += 1
    return table


# ---------------------------------------------------------------------- #
# export
# ---------------------------------------------------------------------- #


def write_chrome_trace(
    path: Path, spans: Sequence[Sequence], table: Dict, extra: Dict
) -> None:
    """Chrome trace-event JSON (chrome://tracing, Perfetto) with the
    per-layer table and run notes under extra top-level keys."""
    origin = min((s[START] for s in spans), default=0.0)
    kept: Dict[str, int] = {}
    events = []
    for span in spans:
        name = span[NAME]
        if kept.get(name, 0) >= EXPORT_CAP_PER_NAME:
            continue
        kept[name] = kept.get(name, 0) + 1
        parent = span[PARENT]
        events.append({
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": round((span[START] - origin) * 1e6, 3),
            "dur": round((span[END] - span[START]) * 1e6, 3),
            "pid": 0,
            "tid": 0,
            "args": {
                "rep": span[REP],
                "op": span[OP],
                "parent": spans[parent][NAME] if parent >= 0 else None,
            },
        })
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "layers": table,
        "events_dropped": {
            name: row["calls"] - kept.get(name, 0)
            for name, row in table.items()
            if row["calls"] > kept.get(name, 0)
        },
        **extra,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------- #
# the wrapped boundaries
# ---------------------------------------------------------------------- #


@contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Install every boundary wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name in BOUNDARIES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, property):
                setattr(owner, attr, property(recorder.wrap(name, original.fget)))
            else:
                setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class TimedCostModel(CostModel):
    """A ``CostModel`` whose estimates are recorded as spans."""

    def __init__(self, cache, recorder: Recorder):
        super().__init__(cache)
        self._recorder = recorder

    def estimate(self, job, chip):
        index = self._recorder.open("cluster.estimate")
        try:
            return super().estimate(job, chip)
        finally:
            self._recorder.close(index)


class TimedPolicy:
    """Policy proxy: the engine's three policy calls become spans (the
    engine reads nothing else of a policy but its name)."""

    def __init__(self, policy, recorder: Recorder):
        self.name = policy.name
        self.select = recorder.wrap("cluster.policy", policy.select)
        self.speed_for = recorder.wrap("cluster.policy", policy.speed_for)
        self.select_preemption = recorder.wrap(
            "cluster.policy", policy.select_preemption
        )
