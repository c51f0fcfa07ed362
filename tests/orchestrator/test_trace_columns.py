"""The trace column table of a study cache file against the
record-at-a-time oracle (``tests/core/trace_oracle.py``): the same
records, by value and by type, for every app; an exact ``trace_to_dict``
round trip for odd traces; and a miss for every malformed table."""

import base64
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES
from repro.apps.registry import create_app
from repro.core.serialization import (
    _COST_FIELDS,
    study_to_dict,
    trace_from_columns,
    trace_from_dict,
    trace_to_dict,
)
from repro.mapreduce.tasks import Phase, TaskCost
from repro.mapreduce.trace import (
    IterationTrace,
    JobTrace,
    MergeStageTrace,
    PhaseTrace,
    TaskRecord,
)
from repro.orchestrator import StudyCache, StudySpec
from repro.orchestrator.cache import pack_document, unpack_document
from repro.utils.jsonutil import canonical_json

from tests.core.trace_oracle import trace_from_rows

SPEC = StudySpec(app="histogram", scale=0.05, seed=9, num_workers=16)


def assert_same(got, want):
    """*got* equals *want* and has its exact type (NaN equals NaN)."""
    assert type(got) is type(want)
    if isinstance(want, float) and math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want


def assert_same_record(got: TaskRecord, want: TaskRecord):
    assert_same(got.task_id, want.task_id)
    assert got.phase is want.phase
    for name in _COST_FIELDS:
        assert_same(getattr(got.cost, name), getattr(want.cost, name))
    assert_same(got.home_worker, want.home_worker)
    got_inputs = list(got.input_bytes_by_worker.items())
    want_inputs = list(want.input_bytes_by_worker.items())
    assert len(got_inputs) == len(want_inputs)
    for (got_worker, got_bytes), (want_worker, want_bytes) in zip(
        got_inputs, want_inputs
    ):
        assert_same(got_worker, want_worker)
        assert_same(got_bytes, want_bytes)
    assert_same(got.partner_worker, want.partner_worker)


def assert_same_trace(got: JobTrace, want: JobTrace):
    assert_same(got.app_name, want.app_name)
    assert_same(got.num_workers, want.num_workers)
    assert_same(got.output_bytes, want.output_bytes)
    assert len(got.iterations) == len(want.iterations)
    for got_it, want_it in zip(got.iterations, want.iterations):
        assert_same(got_it.iteration, want_it.iteration)
        assert got_it.map_phase.phase is want_it.map_phase.phase
        assert got_it.reduce_phase.phase is want_it.reduce_phase.phase
        assert [s.stage_index for s in got_it.merge_stages] == [
            s.stage_index for s in want_it.merge_stages
        ]
        assert [len(s.tasks) for s in got_it.merge_stages] == [
            len(s.tasks) for s in want_it.merge_stages
        ]
        assert len(got_it.map_phase) == len(want_it.map_phase)
        assert len(got_it.reduce_phase) == len(want_it.reduce_phase)
    got_tasks, want_tasks = got.all_tasks(), want.all_tasks()
    assert len(got_tasks) == len(want_tasks)
    for got_record, want_record in zip(got_tasks, want_tasks):
        assert_same_record(got_record, want_record)


@pytest.mark.parametrize("num_workers", [16, 64, 256])
@pytest.mark.parametrize("app", APP_NAMES)
def test_cache_decodes_every_record_as_the_oracle(tmp_path, app, num_workers):
    trace = create_app(app, scale=0.05, seed=7).run(num_workers=num_workers)
    text = json.dumps(trace_to_dict(trace))
    document = json.loads(text)
    cache = StudyCache(tmp_path)
    spec = StudySpec(app, scale=0.05, seed=7, num_workers=num_workers)
    cache.put_document(spec, {"trace": document})
    stored = json.loads(cache.path_for(spec).read_text())["study"]["trace"]
    assert "iterations" in stored and "tasks" in stored
    assert "lib_init" not in stored["iterations"][0]

    oracle = trace_from_rows(document)
    via_cache = trace_from_columns(cache.load_document(spec)["trace"])
    via_rows = trace_from_dict(document)
    assert_same_trace(via_cache, oracle)
    assert_same_trace(via_rows, oracle)
    assert json.dumps(trace_to_dict(via_cache)) == text


# ---------------------------------------------------------------------- #
# odd traces
# ---------------------------------------------------------------------- #

_ODD = st.sampled_from([-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e-310])
_FLOATS = st.one_of(
    _ODD, st.floats(min_value=0.0, max_value=1e300, allow_nan=False)
)
_WORKERS = st.integers(min_value=0, max_value=2**31)

_RECORDS = st.builds(
    TaskRecord,
    task_id=st.integers(min_value=0, max_value=2**40),
    phase=st.sampled_from(list(Phase)),
    cost=st.lists(_FLOATS, min_size=5, max_size=5).map(lambda c: TaskCost(*c)),
    home_worker=_WORKERS,
    input_bytes_by_worker=st.dictionaries(_WORKERS, _FLOATS, max_size=4),
    partner_worker=st.one_of(st.none(), st.just(0), _WORKERS),
)
_ITERATIONS = st.builds(
    IterationTrace,
    iteration=st.integers(min_value=0, max_value=4),
    lib_init=_RECORDS,
    map_phase=st.lists(_RECORDS, max_size=3).map(
        lambda tasks: PhaseTrace(Phase.MAP, tasks)
    ),
    reduce_phase=st.lists(_RECORDS, max_size=3).map(
        lambda tasks: PhaseTrace(Phase.REDUCE, tasks)
    ),
    merge_stages=st.lists(
        st.builds(
            MergeStageTrace,
            stage_index=st.integers(min_value=0, max_value=8),
            tasks=st.lists(_RECORDS, max_size=3),
        ),
        max_size=3,
    ),
)
_TRACES = st.builds(
    JobTrace,
    app_name=st.text(max_size=8),
    num_workers=st.integers(min_value=1, max_value=256),
    iterations=st.lists(_ITERATIONS, max_size=3),
    output_bytes=_FLOATS,
)

_ODD_TRACE = JobTrace(
    app_name="odd",
    num_workers=2,
    iterations=[
        IterationTrace(
            iteration=0,
            lib_init=TaskRecord(
                0, Phase.LIB_INIT, TaskCost(-0.0, 5e-324, 0.0, 1e-310, 2.0), 0,
                {}, 0,
            ),
            map_phase=PhaseTrace(Phase.MAP, []),
            reduce_phase=PhaseTrace(Phase.REDUCE, []),
            merge_stages=[],
        )
    ],
    output_bytes=-0.0,
)


@settings(max_examples=100, deadline=None)
@given(trace=_TRACES)
@example(trace=_ODD_TRACE)
@example(trace=JobTrace(app_name="", num_workers=1))
def test_odd_traces_round_trip_the_document_text(trace):
    text = json.dumps(trace_to_dict(trace))
    stored = json.loads(json.dumps(pack_document({"trace": json.loads(text)})))
    via_cache = trace_from_columns(unpack_document(stored)["trace"])
    assert json.dumps(trace_to_dict(via_cache)) == text
    assert json.dumps(trace_to_dict(trace_from_dict(json.loads(text)))) == text


# ---------------------------------------------------------------------- #
# malformed tables
# ---------------------------------------------------------------------- #


def _costs(member) -> np.ndarray:
    raw = base64.b64decode(member["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(member["shape"]).copy()


def _negative_cost(tasks):
    costs = _costs(tasks["cost"])
    costs[3, 1] = -1.0
    tasks["cost"] = {
        **tasks["cost"], "data": base64.b64encode(costs.tobytes()).decode()
    }


def _first_nonzero(counts):
    return next(i for i, n in enumerate(counts) if n)


def _negative_count(tasks):
    counts = tasks["input_count"]
    first = _first_nonzero(counts)
    counts[first - 1] = -1
    counts[first] += 1


_MALFORMED = {
    "task_id_short": lambda t, _: t["task_id"].pop(),
    "phase_long": lambda t, _: t["phase"].append("map"),
    "partner_short": lambda t, _: t["partner_worker"].pop(),
    "home_worker_short": lambda t, _: t["home_worker"].pop(),
    "input_count_short": lambda t, _: t["input_count"].pop(),
    "input_count_sum_over": lambda t, _: t["input_count"].__setitem__(
        0, t["input_count"][0] + 1
    ),
    "input_count_negative": lambda t, _: _negative_count(t),
    "input_worker_short": lambda t, _: t["input_worker"].pop(),
    "unknown_phase": lambda t, _: t["phase"].__setitem__(0, "shuffle"),
    "negative_cost": lambda t, _: _negative_cost(t),
    "cost_bad_base64": lambda t, _: t["cost"].update(
        data=t["cost"]["data"][:4] + "!!!!" + t["cost"]["data"][4:]
    ),
    "cost_one_row_short": lambda t, _: t["cost"].update(
        shape=[t["cost"]["shape"][0] - 1, 5],
        data=base64.b64encode(_costs(t["cost"])[:-1].tobytes()).decode(),
    ),
    "task_id_str": lambda t, _: t["task_id"].__setitem__(0, "0"),
    "input_worker_float": lambda t, _: t["input_worker"].__setitem__(0, 1.0),
    "tasks_list": lambda t, trace: trace.update(tasks=[]),
    "map_count_over": lambda t, trace: trace["iterations"][0].update(
        map=trace["iterations"][0]["map"] + 1
    ),
    "reduce_count_short": lambda t, trace: trace["iterations"][0].update(
        reduce=trace["iterations"][0]["reduce"] - 1
    ),
    "stage_count_float": lambda t, trace: trace["iterations"][0][
        "merge_stages"
    ][0].update(tasks=1.0),
    "iterations_mapping": lambda t, trace: trace.update(iterations={}),
}


@pytest.fixture(scope="module")
def study():
    return SPEC.run()


def digest(study) -> str:
    return hashlib.sha256(
        canonical_json(study_to_dict(study)).encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize("corrupt", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_table_misses_until_rewritten(tmp_path, study, corrupt):
    cache = StudyCache(tmp_path)
    path = cache.put(SPEC, study)
    envelope = json.loads(path.read_text())
    trace = envelope["study"]["trace"]
    corrupt(trace["tasks"], trace)
    path.write_text(json.dumps(envelope))
    assert cache.get(SPEC) is None
    assert SPEC not in cache
    cache.put(SPEC, study)
    assert digest(cache.get(SPEC)) == digest(study)
