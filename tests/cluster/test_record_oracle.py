"""The record round trip and the scheduling round against their oracles.

* **Save.**  Drawn records -- ``-0.0``, subnormals, non-default
  ``attempts`` / ``preemptions`` / ``wasted_transfer_s``, ``extra``
  holding preemption segments and DVFS labels, numpy scalars in any
  field -- must save to the text, and hash to the digest, that the
  serializer of :mod:`tests.cluster.record_oracle` gives.
* **Load.**  Loading that file, or a document with numpy scalars in any
  field, must give the oracle loader's objects field by field and type
  by type, each record sharing its trace's job exactly when the
  oracle's does; a malformed file must raise the oracle's one-line
  error.
* **Engine.**  Every registered policy, with and without the
  ``ViewChecker`` proxy, must give the payload text of
  :class:`tests.cluster.engine_oracle.OracleEngine`.
* **Tracer.**  The four read-back layers open their wall spans.
"""

import copy
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import fleet_for, run_workload
from repro.cluster import service as service_module
from repro.cluster.arrivals import ArrivalTrace
from repro.cluster.jobs import COMPLETED, REJECTED, JobRecord
from repro.cluster.metrics import SloReport
from repro.cluster.policies import create_scheduler
from repro.cluster.record import ClusterRunResult, replay, verify_replay
from repro.telemetry import RecordingTracer, use_tracer
from repro.utils.jsonutil import load_json_object
from tests.cluster import record_oracle as oracle
from tests.cluster.engine_oracle import (
    OracleDeadlineScheduler,
    OracleEdfPreemptScheduler,
    OracleEngine,
    OracleEventEngine,
)
from tests.cluster.test_properties import FakeCostModel, traces
from tests.cluster.test_warm_path import MIXED_RUNS, ViewChecker, serve

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "data" / "cluster_golden"

HEALTH = [HealthCheck.too_slow, HealthCheck.function_scoped_fixture]


# ---------------------------------------------------------------------- #
# typed comparison
# ---------------------------------------------------------------------- #


def same_typed(a, b) -> bool:
    """*a* and *b* equal value for value and type for type, floats bit
    for bit (so ``-0.0`` is not ``0.0``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_typed(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_typed, a, b))
    return a == b


def job_fields(job):
    return [getattr(job, name) for name in job.__dataclass_fields__]


def record_fields(record):
    return [
        getattr(record, name)
        for name in record.__dataclass_fields__
        if name != "job"
    ]


def assert_same_run(ours: ClusterRunResult, theirs: ClusterRunResult):
    assert same_typed(ours.policy, theirs.policy)
    assert same_typed(ours.max_queue_depth, theirs.max_queue_depth)
    assert same_typed(ours.study_stats, theirs.study_stats)
    assert same_typed(ours.source, theirs.source)
    assert same_typed(ours.fleet.to_dict(), theirs.fleet.to_dict())
    assert same_typed(ours.report.to_dict(), theirs.report.to_dict())
    assert same_typed(ours.trace.name, theirs.trace.name)
    assert same_typed(ours.trace.seed, theirs.trace.seed)
    assert len(ours.trace.jobs) == len(theirs.trace.jobs)
    for mine, other in zip(ours.trace.jobs, theirs.trace.jobs):
        assert type(mine) is type(other)
        assert same_typed(job_fields(mine), job_fields(other))
    assert len(ours.records) == len(theirs.records)
    our_jobs = {job.job_id: job for job in ours.trace.jobs}
    their_jobs = {job.job_id: job for job in theirs.trace.jobs}
    for mine, other in zip(ours.records, theirs.records):
        assert type(mine) is type(other)
        assert same_typed(record_fields(mine), record_fields(other))
        assert type(mine.job) is type(other.job)
        assert same_typed(job_fields(mine.job), job_fields(other.job))
        shared = mine.job is our_jobs.get(mine.job.job_id)
        assert shared == (other.job is their_jobs.get(other.job.job_id))


# ---------------------------------------------------------------------- #
# drawn records
# ---------------------------------------------------------------------- #

#: Floats whose text is easy to get wrong: signed zeros, subnormals,
#: the smallest normal, huge and integral values.
ODD_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
     1.0, 1e300, 2.5]
) | st.floats(allow_nan=False, allow_infinity=False)


def maybe_numpy(strategy, kind):
    """*strategy*'s values, some as the numpy scalar *kind*."""
    return strategy.flatmap(lambda v: st.sampled_from([v, kind(v)]))


FLOATS = maybe_numpy(ODD_FLOATS, np.float64)
TIMES = st.none() | FLOATS
COUNTS = maybe_numpy(st.integers(0, 6), np.int64)
LABELS = maybe_numpy(
    st.sampled_from(["0.60V/1.5GHz", "0.85V/2.25GHz"]), np.str_
)
SEGMENT = st.fixed_dictionaries(
    {
        "chip_id": COUNTS,
        "from": FLOATS,
        "to": FLOATS,
        "service_s": FLOATS,
        "energy_j": FLOATS,
        "transfer_s": FLOATS,
        "speed": st.none() | LABELS,
    }
)
EXTRAS = st.fixed_dictionaries(
    {},
    optional={
        "dvfs": LABELS,
        "segments": st.lists(SEGMENT, min_size=1, max_size=3),
    },
)


@st.composite
def drawn_records(draw, job):
    return JobRecord(
        job=job,
        status=draw(
            maybe_numpy(st.sampled_from([COMPLETED, REJECTED]), np.str_)
        ),
        chip_id=draw(st.none() | COUNTS),
        admitted_s=draw(TIMES),
        dispatched_s=draw(TIMES),
        completed_s=draw(TIMES),
        transfer_s=draw(FLOATS),
        service_s=draw(FLOATS),
        energy_j=draw(FLOATS),
        attempts=draw(maybe_numpy(st.integers(1, 5), np.int64)),
        preemptions=draw(COUNTS),
        wasted_transfer_s=draw(FLOATS),
        extra=draw(EXTRAS),
    )


@st.composite
def recorded_runs(draw):
    trace = draw(traces())
    records = [draw(drawn_records(job)) for job in trace.jobs]
    source = draw(st.none() | st.just(
        {"kind": "closed", "retry_limit": 2, "backoff_base_s": 1.0,
         "seed": 5}
    ))
    return ClusterRunResult(
        trace=trace,
        policy=draw(
            maybe_numpy(st.sampled_from(["fifo", "edf_preempt"]), np.str_)
        ),
        fleet=fleet_for(draw(st.integers(1, 3)), num_workers=16),
        max_queue_depth=draw(maybe_numpy(st.integers(1, 8), np.int64)),
        records=records,
        report=SloReport(policy="fifo", num_jobs=len(records)),
        study_stats={"computed": draw(COUNTS), "cache_hits": 1},
        source=source,
    )


def numpy_leaves(draw, value):
    """*value* (a JSON document) with some leaves as numpy scalars."""
    kind = type(value)
    if kind is dict:
        return {key: numpy_leaves(draw, item) for key, item in value.items()}
    if kind is list:
        return [numpy_leaves(draw, item) for item in value]
    if kind in (int, float, str) and draw(st.booleans()):
        return {int: np.int64, float: np.float64, str: np.str_}[kind](value)
    return value


@settings(max_examples=150, deadline=None, suppress_health_check=HEALTH)
@given(run=recorded_runs())
def test_save_and_load_equal_the_oracles(run, tmp_path):
    path = tmp_path / "run.json"
    run.save(path)
    text = path.read_text()
    assert text == oracle.save_text(run)
    assert run.replay_digest == oracle.digest(run)
    loaded = ClusterRunResult.load(path)
    assert_same_run(loaded, oracle.load(path))
    jobs = {job.job_id: job for job in loaded.trace.jobs}
    for record in loaded.records:
        assert record.job is jobs[record.job.job_id]
    assert loaded.replay_digest == run.replay_digest


@settings(max_examples=150, deadline=None, suppress_health_check=HEALTH)
@given(run=recorded_runs(), data=st.data())
def test_numpy_documents_load_like_the_oracle(run, data):
    document = json.loads(oracle.save_text(run))
    if data.draw(st.booleans()):
        # A row whose job differs from the trace's keeps its own job.
        row = data.draw(st.sampled_from(document["records"]))
        row["job"]["input_mb"] += 1.0
    document = numpy_leaves(data.draw, document)
    ours = ClusterRunResult.from_dict(copy.deepcopy(document))
    assert_same_run(ours, oracle.from_dict(document))


# ---------------------------------------------------------------------- #
# malformed files
# ---------------------------------------------------------------------- #


def _set(*path_and_value):
    *path, value = path_and_value

    def tamper(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return tamper


def _delete(*path):
    def tamper(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return tamper


#: (tamper, member the error names) for a saved record: the cases of
#: ``test_cli.py``, then wrong-typed and missing fields.
RECORD_TAMPERS = [
    (_set("records", 0, "job", "bogus", 1), "records"),
    (_set("records", 5), "records"),
    (_delete("records"), "records"),
    (_set("trace", "jobs", 0, "bogus", 1), "trace"),
    (_set("trace", "jobs", 0, "arrival_s", float("nan")), "trace"),
    (_set("trace", "jobs", 1, "input_mb", float("inf")), "trace"),
    (_set("trace", "jobs", 0, "job_id", "seven"), "trace"),
    (_set("trace", "jobs", 0, "job_id", None), "trace"),
    (_set("trace", "jobs", 0, "app", 7), "trace"),
    (_set("trace", "jobs", 0, "app", "bogus"), "trace"),
    (_set("trace", "jobs", 0, "scale", "big"), "trace"),
    (_set("trace", "jobs", 0, "deadline_s", [1.0]), "trace"),
    (_delete("trace", "jobs", 0, "arrival_s"), "trace"),
    (_set("trace", "jobs", 0, 5), "trace"),
    (_set("trace", "jobs", 5), "trace"),
    (_set("records", 0, "job", 5), "records"),
    (_set("records", 0, "job", "arrival_s", "early"), "records"),
    (_delete("records", 0, "job", "app"), "records"),
    (_set("records", 0, 5), "records"),
    (_delete("records", 0, "status"), "records"),
    (_delete("records", 0, "completed_s"), "records"),
    (_set("records", 0, "transfer_s", "fast"), "records"),
    (_set("records", 0, "transfer_s", None), "records"),
    (_set("records", 0, "energy_j", [1.0]), "records"),
    (_set("records", 0, "attempts", "two"), "records"),
    (_set("records", 0, "preemptions", None), "records"),
    (_set("records", 0, "wasted_transfer_s", {}), "records"),
    (_set("records", 0, "extra", 5), "records"),
    (_set("records", 0, "extra", [1, 2]), "records"),
    (_set("max_queue_depth", "deep"), "max_queue_depth"),
]


@pytest.mark.parametrize(
    "tamper, member", RECORD_TAMPERS, ids=range(len(RECORD_TAMPERS))
)
def test_malformed_records_raise_the_oracles_error(tmp_path, tamper, member):
    data = json.loads((GOLDEN_DIR / "smoke_fifo.json").read_text())
    tamper(data)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as ours:
        ClusterRunResult.load(path)
    with pytest.raises(ValueError) as theirs:
        oracle.load(path)
    message = str(ours.value)
    assert message == str(theirs.value)
    assert "\n" not in message
    assert message.startswith(f"{path}: member {member!r}")


#: Fields a wrong type still coerces in (both loaders agree on what).
COERCED = [
    _set("records", 0, "attempts", 2.5),
    _set("records", 0, "extra", [["dvfs", "0.60V/1.5GHz"]]),
    _set("records", 0, "status", 3),
    _set("records", 0, "chip_id", [0]),
    _set("trace", "jobs", 0, "seed", 9.0),
    _set("trace", "jobs", 0, "app", " Hist "),
    _set("records", 0, "job", "job_id", "0"),
]


@pytest.mark.parametrize("tamper", COERCED, ids=range(len(COERCED)))
def test_coerced_fields_load_like_the_oracle(tmp_path, tamper):
    data = json.loads((GOLDEN_DIR / "smoke_fifo.json").read_text())
    tamper(data)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    assert_same_run(ClusterRunResult.load(path), oracle.load(path))


@pytest.mark.parametrize(
    "tamper",
    [
        _set("jobs", 0, "bogus", 1),
        _set("jobs", 0, "arrival_s", float("nan")),
        _set("jobs", 1, "input_mb", float("inf")),
        _set("jobs", 0, "job_id", -1),
        _set("jobs", 1, "job_id", 0),
        _delete("name"),
    ],
    ids=range(6),
)
def test_malformed_traces_raise_the_oracles_error(tmp_path, tamper):
    data = json.loads((GOLDEN_DIR / "smoke.trace.json").read_text())
    tamper(data)
    path = tmp_path / "smoke.trace.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as ours:
        load_json_object(path, ArrivalTrace.from_dict)
    with pytest.raises(ValueError) as theirs:
        load_json_object(path, oracle.trace_from_dict)
    assert str(ours.value) == str(theirs.value)
    assert "\n" not in str(ours.value)


# ---------------------------------------------------------------------- #
# the scheduling round
# ---------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None, suppress_health_check=HEALTH)
@given(config=MIXED_RUNS, checked=st.booleans())
def test_every_policy_gives_the_old_engines_payload(
    config, checked, monkeypatch
):
    policy = create_scheduler(config["policy"])
    if checked:
        policy = ViewChecker(policy)
    result = serve(config, cost_model=FakeCostModel(), policy=policy)
    with monkeypatch.context() as patched:
        patched.setattr(service_module, "ClusterEngine", OracleEngine)
        expected = serve(config, cost_model=FakeCostModel())
    assert result.payload_json() == expected.payload_json()


@pytest.mark.parametrize(
    "name, oracle",
    [
        ("edf", OracleDeadlineScheduler),
        ("edf_preempt", OracleEdfPreemptScheduler),
        ("fifo", type(create_scheduler("fifo"))),
    ],
)
def test_the_oracle_engine_runs_the_old_heap_and_policy_bodies(name, oracle):
    engine = OracleEngine(
        fleet_for(2), create_scheduler(name), FakeCostModel(), 4
    )
    assert type(engine.events) is OracleEventEngine
    assert type(engine.policy) is oracle
    assert engine.policy.name == name


# ---------------------------------------------------------------------- #
# tracer spans
# ---------------------------------------------------------------------- #

READBACK_SPANS = (
    "cluster.record.save",
    "cluster.record.load",
    "cluster.replay.run",
    "cluster.verify",
)


def test_record_round_trip_opens_wall_spans(
    smoke_trace, small_fleet, study_cache, tmp_path
):
    run = run_workload(smoke_trace, small_fleet, "fifo", cache=study_cache)
    path = tmp_path / "run.json"
    tracer = RecordingTracer()
    with use_tracer(tracer):
        run.save(path)
        loaded = ClusterRunResult.load(path)
        fresh = replay(loaded, cache=study_cache)
        assert verify_replay(loaded, fresh) is None
    spans = {span.name: span for span in tracer.spans_by(wall=True)}
    assert set(READBACK_SPANS) <= set(spans)
    for name in READBACK_SPANS:
        assert spans[name].cat == "cluster"
        assert spans[name].duration_s >= 0.0
    starts = [spans[name].start_s for name in READBACK_SPANS]
    assert starts == sorted(starts)
    # The replay's own simulated-time spans are recorded as before.
    chips = [
        span for span in tracer.spans_by(cat="cluster", wall=False)
        if str(span.tid).startswith("chip")
    ]
    assert len(chips) == fresh.report.completed
