"""Run records: canonical persistence, replay verification, tampering."""

import copy
import hashlib
import json

import numpy as np
import pytest

from repro.cluster import record as record_module
from repro.cluster import run_workload
from repro.cluster.record import (
    RECORD_SCHEMA_VERSION,
    ClusterRunResult,
    replay,
    verify_replay,
)
from repro.utils.jsonutil import canonical_json


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
