"""Run records: canonical persistence, replay verification, tampering."""

import copy
import dataclasses
import gc
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import record as record_module
from repro.cluster import (
    ArrivalTrace,
    ClusterJob,
    Fleet,
    preset_trace,
    run_workload,
)
from repro.cluster.record import (
    RECORD_SCHEMA_VERSION,
    ClusterRunResult,
    replay,
    verify_replay,
)
from repro.core.experiment import NVFI_MESH, VFI2_WINOC
from repro.utils.jsonutil import canonical_json
from tests.cluster.verify_oracle import verify_oracle


@pytest.fixture(scope="module")
def recorded(smoke_trace, small_fleet, study_cache):
    return run_workload(smoke_trace, small_fleet, "priority", cache=study_cache)


class TestPersistence:
    def test_save_load_round_trip(self, recorded, tmp_path):
        path = tmp_path / "run.json"
        recorded.save(path)
        loaded = ClusterRunResult.load(path)
        assert loaded.payload_json() == recorded.payload_json()
        assert loaded.replay_digest == recorded.replay_digest
        assert loaded.study_stats == recorded.study_stats

    def test_file_is_canonical_json(self, recorded, tmp_path):
        path = tmp_path / "run.json"
        recorded.save(path)
        text = path.read_text()
        assert text.endswith("\n")
        data = json.loads(text)
        assert text == canonical_json(data) + "\n"
        assert data["schema_version"] == RECORD_SCHEMA_VERSION
        assert data["replay_digest"] == recorded.replay_digest

    def test_schema_version_rejected(self, recorded):
        data = recorded.to_dict()
        data["schema_version"] = RECORD_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            ClusterRunResult.from_dict(data)

    def test_digest_excludes_study_stats(self, recorded):
        # The cold/warm split must not leak into the replay contract.
        clone = ClusterRunResult.from_dict(recorded.to_dict())
        clone.study_stats = {"computed": 0, "cache_hits": 99}
        assert clone.replay_digest == recorded.replay_digest


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as it was, whatever a test does."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPaused:
    """``save`` and ``load`` run with the cyclic collector disabled and
    leave it as they found it."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The collector's state inside each save (at the digest) and
        load (at ``from_dict``)."""
        seen = []
        digest = record_module._digest
        from_dict = ClusterRunResult.from_dict.__func__

        def spy_digest(members):
            seen.append(("save", gc.isenabled()))
            return digest(members)

        def spy_from_dict(cls, data):
            seen.append(("load", gc.isenabled()))
            return from_dict(cls, data)

        monkeypatch.setattr(record_module, "_digest", spy_digest)
        monkeypatch.setattr(
            ClusterRunResult, "from_dict", classmethod(spy_from_dict)
        )
        return seen

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_inside_and_restored_after(
        self, recorded, tmp_path, collector_state, seen, enabled
    ):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        path = tmp_path / "run.json"
        recorded.save(path)
        assert gc.isenabled() is enabled
        loaded = ClusterRunResult.load(path)
        assert gc.isenabled() is enabled
        assert seen == [("save", False), ("load", False)]
        assert loaded.replay_digest == recorded.replay_digest

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_after_a_malformed_file(
        self, recorded, tmp_path, collector_state, seen, enabled
    ):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        data = recorded.to_dict()
        data["records"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        seen.clear()  # to_dict's digest is no save
        with pytest.raises(ValueError, match="records"):
            ClusterRunResult.load(path)
        assert gc.isenabled() is enabled
        assert seen == [("load", False)]


class TestReplay:
    def test_warm_replay_matches_and_recomputes_nothing(
        self, recorded, study_cache
    ):
        fresh = replay(recorded, cache=study_cache)
        assert verify_replay(recorded, fresh) is None
        assert fresh.study_stats["computed"] == 0

    def test_tampered_record_diverges(self, recorded, study_cache):
        data = recorded.to_dict()
        data["report"]["total_energy_j"] += 1.0
        tampered = ClusterRunResult.from_dict(data)
        fresh = replay(tampered, cache=study_cache)
        divergence = verify_replay(tampered, fresh)
        assert divergence is not None
        assert "report" in divergence

    def test_different_policy_diverges(
        self, burst_trace, small_fleet, study_cache
    ):
        # Under the bursty workload fifo and locality genuinely schedule
        # differently; a record relabeled with the other policy must not
        # verify against its own replay.
        fifo = run_workload(
            burst_trace, small_fleet, "fifo", cache=study_cache
        )
        data = fifo.to_dict()
        data["policy"] = "locality"
        relabeled = ClusterRunResult.from_dict(data)
        fresh = replay(relabeled, cache=study_cache)
        assert fresh.policy == "locality"
        assert verify_replay(relabeled, fresh) is not None


def _numpy_job(job):
    job["job_id"] = np.int64(job["job_id"])
    job["app"] = np.str_(job["app"])
    job["arrival_s"] = np.float64(job["arrival_s"])
    job["seed"] = np.int64(job["seed"])
    if job["deadline_s"] is not None:
        job["deadline_s"] = np.float64(job["deadline_s"])


def _numpy_record_dict(data):
    """*data* (a record dict) with its ids, times, names and counters as
    numpy scalars -- what a record assembled from analysis arrays holds."""
    data = copy.deepcopy(data)
    data["policy"] = np.str_(data["policy"])
    data["max_queue_depth"] = np.int64(data["max_queue_depth"])
    data["trace"]["seed"] = np.int64(data["trace"]["seed"])
    for job in data["trace"]["jobs"]:
        _numpy_job(job)
    for row in data["records"]:
        _numpy_job(row["job"])
        if row["chip_id"] is not None:
            row["chip_id"] = np.int64(row["chip_id"])
        for key in ("admitted_s", "dispatched_s", "completed_s"):
            if row[key] is not None:
                row[key] = np.float64(row[key])
        row["energy_j"] = np.float64(row["energy_j"])
    for chip in data["fleet"]["chips"]:
        chip["chip_id"] = np.int64(chip["chip_id"])
    data["fleet"]["interconnect_gbps"] = np.float64(
        data["fleet"]["interconnect_gbps"]
    )
    data["report"]["completed"] = np.int64(data["report"]["completed"])
    data["report"]["makespan_s"] = np.float64(data["report"]["makespan_s"])
    data["study_stats"] = {
        key: np.int64(value) for key, value in data["study_stats"].items()
    }
    return data


class TestLoadNormalization:
    """One normalization per value: __post_init__ coercion for jobs,
    traces and chips, one to_builtin for the free-form members."""

    def test_numpy_scalars_load_like_builtins(self, recorded):
        data = recorded.to_dict()
        numpy_data = _numpy_record_dict(data)
        assert numpy_data["records"][0]["job"]["job_id"].dtype == np.int64
        loaded = ClusterRunResult.from_dict(numpy_data)
        assert loaded.payload_json() == recorded.payload_json()
        assert loaded.payload_json() == (
            ClusterRunResult.from_dict(data).payload_json()
        )
        assert loaded.to_dict() == data

    def test_numpy_scalars_load_as_builtin_types(self, recorded):
        numpy_data = _numpy_record_dict(recorded.to_dict())
        segment = {"chip_id": np.int64(1), "service_s": np.float64(2.5)}
        numpy_data["records"][0]["extra"] = {"segments": [segment]}
        loaded = ClusterRunResult.from_dict(numpy_data)
        segment = loaded.records[0].extra["segments"][0]
        assert type(segment["chip_id"]) is int
        assert type(segment["service_s"]) is float
        assert type(loaded.policy) is str
        assert type(loaded.max_queue_depth) is int
        assert type(loaded.trace.seed) is int
        assert all(type(chip.chip_id) is int for chip in loaded.fleet)
        assert type(loaded.fleet.interconnect_gbps) is float
        assert type(loaded.report.completed) is int
        assert type(loaded.report.makespan_s) is float
        assert {type(v) for v in loaded.study_stats.values()} == {int}
        jobs = list(loaded.trace.jobs) + [r.job for r in loaded.records]
        for job in jobs:
            assert type(job.job_id) is int
            assert type(job.app) is str
            assert type(job.arrival_s) is float
            assert type(job.seed) is int
            assert job.deadline_s is None or type(job.deadline_s) is float
        completed = [r for r in loaded.records if r.chip_id is not None]
        assert completed
        for row in completed:
            assert type(row.chip_id) is int
            assert type(row.admitted_s) is float
            assert type(row.dispatched_s) is float
            assert type(row.completed_s) is float
            assert type(row.energy_j) is float


class TestSharedJobs:
    def test_loaded_records_share_the_trace_jobs(self, recorded, tmp_path):
        path = tmp_path / "run.json"
        recorded.save(path)
        loaded = ClusterRunResult.load(path)
        jobs = {job.job_id: job for job in loaded.trace.jobs}
        assert len(loaded.records) == len(jobs)
        for row in loaded.records:
            assert row.job is jobs[row.job.job_id]

    def test_a_differing_record_job_keeps_its_own(self, recorded):
        data = recorded.to_dict()
        data["records"][0]["job"]["input_mb"] += 1.0
        loaded = ClusterRunResult.from_dict(data)
        jobs = {job.job_id: job for job in loaded.trace.jobs}
        first = loaded.records[0].job
        assert first is not jobs[first.job_id]
        assert first.input_mb == jobs[first.job_id].input_mb + 1.0
        for row in loaded.records[1:]:
            assert row.job is jobs[row.job.job_id]

    def test_a_matching_row_builds_no_second_job(self, recorded, monkeypatch):
        data = recorded.to_dict()
        built = []
        post_init = ClusterJob.__post_init__

        def counting(job):
            built.append(job.job_id)
            post_init(job)

        monkeypatch.setattr(ClusterJob, "__post_init__", counting)
        ClusterRunResult.from_dict(data)
        assert sorted(built) == sorted(job.job_id for job in recorded.trace.jobs)


class TestMemberSerialization:
    """save, payload_json, replay_digest and verify share one per-member
    serialization; it must reproduce the whole-document encoding."""

    def test_payload_json_is_canonical_payload_dict(self, recorded):
        assert recorded.payload_json() == canonical_json(
            recorded.payload_dict()
        )

    def test_digest_is_sha256_of_payload_json(self, recorded):
        expected = hashlib.sha256(
            recorded.payload_json().encode("utf-8")
        ).hexdigest()
        assert recorded.replay_digest == expected

    def test_closed_loop_source_member(self, recorded):
        clone = ClusterRunResult.from_dict(recorded.to_dict())
        clone.source = {"kind": "closed", "retry_limit": np.int64(2)}
        assert clone.payload_json() == canonical_json(clone.payload_dict())
        assert '"source":{"kind":"closed","retry_limit":2}' in (
            clone.payload_json()
        )

    def test_saved_file_with_source_is_canonical_to_dict(
        self, recorded, tmp_path
    ):
        clone = ClusterRunResult.from_dict(recorded.to_dict())
        clone.source = {"kind": "closed", "retry_limit": 2}
        clone.study_stats = {"computed": np.int64(1), "cache_hits": 2}
        path = tmp_path / "run.json"
        clone.save(path)
        assert path.read_text() == canonical_json(clone.to_dict()) + "\n"
        assert ClusterRunResult.load(path).replay_digest == clone.replay_digest


class TestDivergenceMessages:
    """verify_replay stops at the first differing member, in payload
    order, with today's message text."""

    @staticmethod
    def _expected(key, record, other):
        return (
            f"replay diverged at {key!r}: digest "
            f"{record.replay_digest[:12]} != {other.replay_digest[:12]}"
        )

    def test_tampered_record_names_records(self, recorded):
        data = recorded.to_dict()
        data["records"][-1]["energy_j"] += 1.0
        tampered = ClusterRunResult.from_dict(data)
        assert verify_replay(recorded, tampered) == self._expected(
            "records", recorded, tampered
        )

    def test_tampered_trace_job_names_trace(self, recorded):
        data = recorded.to_dict()
        data["trace"]["jobs"][0]["input_mb"] += 1.0
        tampered = ClusterRunResult.from_dict(data)
        assert verify_replay(recorded, tampered) == self._expected(
            "trace", recorded, tampered
        )

    def test_tampered_report_names_report(self, recorded):
        data = recorded.to_dict()
        data["report"]["total_energy_j"] += 1.0
        tampered = ClusterRunResult.from_dict(data)
        assert verify_replay(recorded, tampered) == self._expected(
            "report", recorded, tampered
        )

    def test_source_only_on_the_record_is_located(self, recorded):
        closed = ClusterRunResult.from_dict(recorded.to_dict())
        closed.source = {"kind": "closed", "retry_limit": 2}
        assert verify_replay(closed, recorded) == self._expected(
            "source", closed, recorded
        )

    def test_source_only_on_the_replay_is_unlocated(self, recorded):
        closed = ClusterRunResult.from_dict(recorded.to_dict())
        closed.source = {"kind": "closed", "retry_limit": 2}
        assert verify_replay(recorded, closed) == (
            "replay diverged (unlocated)"
        )

    def test_matching_replay_hashes_nothing(self, recorded, monkeypatch):
        clone = ClusterRunResult.from_dict(recorded.to_dict())

        def no_hashing(*args):
            raise AssertionError("verify hashed a matching replay")

        monkeypatch.setattr(record_module.hashlib, "sha256", no_hashing)
        assert verify_replay(recorded, clone) is None


class TestNothingEncodedOnAMatch:
    @staticmethod
    def _refuse_encoding(monkeypatch):
        def refuse(value):
            raise AssertionError("verify encoded a matching replay")

        monkeypatch.setattr(record_module, "dump_builtin", refuse)
        monkeypatch.setattr(record_module, "canonical_json", refuse)

    def test_a_real_replay_encodes_nothing(
        self, recorded, study_cache, monkeypatch
    ):
        fresh = replay(recorded, cache=study_cache)
        assert fresh.trace is recorded.trace
        self._refuse_encoding(monkeypatch)
        assert verify_replay(recorded, fresh) is None

    def test_a_loaded_clone_encodes_nothing(self, recorded, monkeypatch):
        clone = ClusterRunResult.from_dict(recorded.to_dict())
        assert clone.trace is not recorded.trace
        self._refuse_encoding(monkeypatch)
        assert verify_replay(recorded, clone) is None


# ---------------------------------------------------------------------- #
# The typed comparison against the text comparison it replaced
# ---------------------------------------------------------------------- #

#: Every value canonical JSON encodes (NaN and infinities are out:
#: ``save`` cannot write them).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)


@st.composite
def _twisted(draw, value):
    """*value*, or a variant that may or may not encode the same: ints
    and floats switch type, zeros their sign, bools become ints,
    scalars become numpy scalars, lists tuples, and dicts reorder."""
    kind = type(value)
    if kind is bool:
        return draw(st.sampled_from([value, int(value), np.bool_(value)]))
    if kind is int:
        options = [value, float(value)]
        if value in (0, 1):
            options.append(bool(value))
        if -(2**63) <= value < 2**63:
            options.append(np.int64(value))
        return draw(st.sampled_from(options))
    if kind is float:
        options = [value, -value, np.float64(value)]
        if value.is_integer():
            options.append(int(value))
        return draw(st.sampled_from(options))
    if kind is str:
        return draw(st.sampled_from([value, np.str_(value)]))
    if kind is list:
        items = [draw(_twisted(item)) for item in value]
        return draw(st.sampled_from([items, tuple(items)]))
    if kind is dict:
        keys = draw(st.permutations(list(value)))
        return {key: draw(_twisted(value[key])) for key in keys}
    return value


def _own_copy(run):
    """*run* with its own records, report and source to perturb; its
    trace, fleet and jobs stay the ones *run* holds."""
    return dataclasses.replace(
        run,
        records=[
            dataclasses.replace(r, extra=copy.deepcopy(r.extra))
            for r in run.records
        ],
        report=copy.deepcopy(run.report),
        source=copy.deepcopy(run.source),
    )


_NUMERIC_FIELDS = (
    "chip_id", "admitted_s", "dispatched_s", "completed_s", "transfer_s",
    "service_s", "energy_j", "attempts", "preemptions", "wasted_transfer_s",
)


def _perturb_field(draw, ours, theirs):
    record = draw(st.sampled_from(theirs.records))
    name = draw(st.sampled_from(_NUMERIC_FIELDS))
    value = getattr(record, name)
    if value is not None:
        setattr(record, name, draw(_twisted(value)))


def _bump_field(draw, ours, theirs):
    record = draw(st.sampled_from(theirs.records))
    name = draw(st.sampled_from(_NUMERIC_FIELDS))
    value = getattr(record, name)
    setattr(record, name, 1 if value is None else value + 1)


def _switch_field(draw, ours, theirs):
    # The same field on both sides, as two values that compare equal in
    # Python; some encode alike (or are omitted alike), some do not.
    index = draw(st.integers(0, len(ours.records) - 1))
    name = draw(st.sampled_from(_NUMERIC_FIELDS))
    mine, other = draw(st.sampled_from([
        (0.0, -0.0), (0.0, 0), (1, 1.0), (1, True), (0, False), (2, 2.0),
        (1.5, np.float64(1.5)), (3, np.int64(3)), (0.0, 0.0),
    ]))
    setattr(ours.records[index], name, mine)
    setattr(theirs.records[index], name, other)


def _perturb_extra(draw, ours, theirs):
    index = draw(st.integers(0, len(ours.records) - 1))
    value = draw(JSON_VALUES)
    ours.records[index].extra["probe"] = value
    theirs.records[index].extra["probe"] = draw(
        st.sampled_from([value, copy.deepcopy(value)]) | _twisted(value)
    )


def _perturb_segments(draw, ours, theirs):
    # A preempted record's extra holds its segments: a list of dicts.
    record = draw(st.sampled_from(theirs.records))
    record.extra = draw(_twisted(record.extra))


def _add_extra_key(draw, ours, theirs):
    record = draw(st.sampled_from(theirs.records))
    record.extra[draw(st.text(min_size=1, max_size=4))] = draw(JSON_VALUES)


def _rename_extra_key(draw, ours, theirs):
    index = draw(st.integers(0, len(ours.records) - 1))
    ours.records[index].extra["probe"] = None
    theirs.records[index].extra[draw(st.sampled_from(["probe", "Probe"]))] = None


def _bool_key(draw, ours, theirs):
    # {True: 0} and {"true": 0} encode alike; a typed key compare
    # would call them different.
    ours.records[0].extra["probe"] = {True: 0}
    theirs.records[0].extra["probe"] = draw(
        st.sampled_from([{"true": 0}, {True: 0}, {"True": 0}, {1: 0}])
    )


def _records_as_tuple(draw, ours, theirs):
    theirs.records = tuple(theirs.records)


def _drop_record(draw, ours, theirs):
    del theirs.records[draw(st.integers(0, len(theirs.records) - 1))]


def _append_record(draw, ours, theirs):
    theirs.records.append(
        dataclasses.replace(draw(st.sampled_from(theirs.records)))
    )


def _copy_job(draw, ours, theirs):
    record = draw(st.sampled_from(theirs.records))
    changes = draw(
        st.sampled_from([{}, {"input_mb": record.job.input_mb + 1.0}])
    )
    record.job = dataclasses.replace(record.job, **changes)


def _copy_trace(draw, ours, theirs):
    trace = theirs.trace
    jobs = list(trace.jobs)
    index = draw(st.integers(0, len(jobs) - 1))
    changes = draw(st.sampled_from([
        {},
        {"input_mb": jobs[index].input_mb + 1.0},
        {"priority": jobs[index].priority + 1},
        {"seed": jobs[index].seed + 1},
    ]))
    jobs[index] = dataclasses.replace(jobs[index], **changes)
    theirs.trace = draw(st.sampled_from([
        ArrivalTrace(name=trace.name, seed=trace.seed, jobs=tuple(jobs)),
        ArrivalTrace.from_dict(
            ArrivalTrace(trace.name, trace.seed, tuple(jobs)).to_dict()
        ),
    ]))


def _copy_fleet(draw, ours, theirs):
    fleet = theirs.fleet
    chips = list(fleet.chips)
    index = draw(st.integers(0, len(chips) - 1))
    other = NVFI_MESH if chips[index].config == VFI2_WINOC else VFI2_WINOC
    changes = draw(st.sampled_from([{}, {"config": other}]))
    chips[index] = dataclasses.replace(chips[index], **changes)
    theirs.fleet = draw(st.sampled_from([
        Fleet(chips=tuple(chips), interconnect_gbps=fleet.interconnect_gbps),
        Fleet.from_dict(fleet.to_dict()),
    ]))


def _source_one_side(draw, ours, theirs):
    side = draw(st.sampled_from([ours, theirs]))
    side.source = None if side.source is not None else {
        "kind": "closed", "retry_limit": 2,
    }


def _twist_source(draw, ours, theirs):
    if theirs.source is not None:
        theirs.source = draw(_twisted(theirs.source))


def _twist_report(draw, ours, theirs):
    name = draw(st.sampled_from(
        ["completed", "makespan_s", "total_energy_j", "preemptions"]
    ))
    setattr(theirs.report, name, draw(_twisted(getattr(theirs.report, name))))


def _twist_scalars(draw, ours, theirs):
    theirs.policy = draw(st.sampled_from(
        [theirs.policy, np.str_(theirs.policy), "fifo"]
    ))
    theirs.max_queue_depth = draw(_twisted(theirs.max_queue_depth))


PERTURBATIONS = (
    lambda draw, ours, theirs: None,
    _perturb_field,
    _bump_field,
    _switch_field,
    _perturb_extra,
    _perturb_segments,
    _add_extra_key,
    _rename_extra_key,
    _bool_key,
    _records_as_tuple,
    _drop_record,
    _append_record,
    _copy_job,
    _copy_trace,
    _copy_fleet,
    _source_one_side,
    _twist_source,
    _twist_report,
    _twist_scalars,
)


@pytest.fixture(scope="module")
def replayed_runs(recorded, smoke_trace, small_fleet, study_cache):
    """(run, its replay) for an open-loop run, a closed-loop run that
    retries and a preempting run."""
    closed = run_workload(
        preset_trace("burst", seed=7), small_fleet, "fifo",
        cache=study_cache, max_queue_depth=2, source="closed",
        source_options={"retry_limit": 2, "backoff_base_s": 3.0},
    )
    preempting = run_workload(
        preset_trace("deadline_tight", seed=7), small_fleet, "edf_preempt",
        cache=study_cache,
    )
    assert closed.report.retries > 0
    assert preempting.report.preemptions > 0
    return [
        (run, replay(run, cache=study_cache))
        for run in (recorded, closed, preempting)
    ]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_typed_verdicts_equal_the_text_verdicts(replayed_runs, data):
    run, fresh = data.draw(st.sampled_from(replayed_runs))
    ours, theirs = _own_copy(run), _own_copy(fresh)
    perturb = data.draw(st.sampled_from(PERTURBATIONS))
    perturb(data.draw, ours, theirs)
    if data.draw(st.booleans()):
        ours, theirs = theirs, ours
    assert verify_replay(ours, theirs) == verify_oracle(ours, theirs)


@pytest.mark.parametrize("name", _NUMERIC_FIELDS + ("status", "extra"))
def test_every_changed_record_field_diverges(replayed_runs, name):
    # Each field of a record, changed on one record of a real replay
    # (whose job the record shares), is a divergence at 'records'.
    for run, fresh in replayed_runs:
        theirs = _own_copy(fresh)
        record = theirs.records[-1]
        value = getattr(record, name)
        if name == "status":
            value = "rejected" if value == "completed" else "completed"
        elif name == "extra":
            value = {**value, "probe": 0}
        else:
            value = 1 if value is None else value + 1
        setattr(record, name, value)
        verdict = verify_replay(run, theirs)
        assert verdict == verify_oracle(run, theirs)
        assert verdict.startswith("replay diverged at 'records'")
