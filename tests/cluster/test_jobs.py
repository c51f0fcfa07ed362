"""ClusterJob / JobRecord: canonicalization, casts, round trips."""

import json

import numpy as np
import pytest

from repro.cluster.fleet import ChipSpec
from repro.cluster.jobs import COMPLETED, REJECTED, ClusterJob, JobRecord


def _assert_builtin(value, path="$"):
    """Recursively assert *value* contains only JSON-native builtins."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, f"non-str key at {path}: {key!r}"
            _assert_builtin(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _assert_builtin(item, f"{path}[{index}]")
    else:
        assert value is None or type(value) in (str, int, float, bool), (
            f"non-builtin at {path}: {type(value)} {value!r}"
        )


class TestClusterJob:
    def test_canonicalizes_app_alias(self):
        job = ClusterJob(job_id=0, app="hist", arrival_s=1.0)
        assert job.app == "histogram"

    def test_numpy_scalars_are_cast(self):
        job = ClusterJob(
            job_id=np.int64(3),
            app="wordcount",
            arrival_s=np.float64(2.5),
            scale=np.float32(0.05),
            seed=np.int32(9),
            priority=np.int64(1),
            deadline_s=np.float64(99.0),
            input_mb=np.float64(48.0),
        )
        data = job.to_dict()
        _assert_builtin(data)
        json.dumps(data)  # must not raise

    def test_round_trip(self):
        job = ClusterJob(
            job_id=5, app="kmeans", arrival_s=10.0, priority=2,
            deadline_s=150.0, input_mb=32.0,
        )
        assert ClusterJob.from_dict(job.to_dict()) == job

    def test_round_trip_with_numpy_payload(self):
        # A dict assembled from numpy values (e.g. out of an analysis
        # array) must construct cleanly.
        data = {
            "job_id": np.int64(1),
            "app": "histogram",
            "arrival_s": np.float64(3.0),
            "scale": np.float64(0.05),
            "seed": np.int64(9),
            "priority": np.int64(0),
            "deadline_s": None,
            "input_mb": np.float64(64.0),
        }
        job = ClusterJob.from_dict(data)
        assert job.arrival_s == 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"job_id": -1, "app": "histogram", "arrival_s": 0.0},
            {"job_id": 0, "app": "histogram", "arrival_s": -1.0},
            {"job_id": 0, "app": "histogram", "arrival_s": 0.0, "scale": 0.0},
            {"job_id": 0, "app": "histogram", "arrival_s": 5.0, "deadline_s": 5.0},
            {"job_id": 0, "app": "histogram", "arrival_s": 0.0, "input_mb": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterJob(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_s", float("nan")),
            ("arrival_s", float("inf")),
            ("deadline_s", float("nan")),
            ("deadline_s", float("inf")),
            ("input_mb", float("nan")),
            ("input_mb", float("-inf")),
        ],
    )
    def test_non_finite_numbers_rejected(self, field, value):
        kwargs = {"job_id": 4, "app": "histogram", "arrival_s": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^job 4: {field} must be finite"):
            ClusterJob(**kwargs)

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            ClusterJob(job_id=0, app="nosuchapp", arrival_s=0.0)

    def test_spec_for_same_chip_class_collapses(self):
        job = ClusterJob(job_id=0, app="histogram", arrival_s=0.0, seed=9)
        chip_a = ChipSpec(chip_id=0, num_workers=16)
        chip_b = ChipSpec(chip_id=7, num_workers=16)
        assert job.spec_for(chip_a) == job.spec_for(chip_b)
        assert job.spec_for(chip_a).num_workers == 16
        # vfi2_winoc chips skip the VFI 1 simulation.
        assert job.spec_for(chip_a).include_vfi1 is False

    def test_dataset_key_tracks_identity(self):
        a = ClusterJob(job_id=0, app="histogram", arrival_s=0.0, seed=9)
        b = ClusterJob(job_id=1, app="histogram", arrival_s=1.0, seed=9)
        c = ClusterJob(job_id=2, app="histogram", arrival_s=2.0, seed=11)
        assert a.dataset_key == b.dataset_key
        assert a.dataset_key != c.dataset_key


class TestJobRecord:
    def _record(self):
        job = ClusterJob(
            job_id=1, app="histogram", arrival_s=10.0, deadline_s=100.0
        )
        return JobRecord(
            job=job, status=COMPLETED, chip_id=0, admitted_s=10.0,
            dispatched_s=12.0, completed_s=60.0, transfer_s=0.5,
            service_s=47.5, energy_j=1234.5,
        )

    def test_lifecycle_properties(self):
        record = self._record()
        assert record.queue_wait_s == 2.0
        assert record.latency_s == 50.0
        assert record.deadline_met is True

    def test_deadline_none_for_best_effort_and_rejected(self):
        job = ClusterJob(job_id=0, app="histogram", arrival_s=0.0)
        assert JobRecord(job=job, completed_s=5.0).deadline_met is None
        timed = ClusterJob(
            job_id=1, app="histogram", arrival_s=0.0, deadline_s=10.0
        )
        assert JobRecord(job=timed, status=REJECTED).deadline_met is None
        assert JobRecord(job=timed, status=REJECTED).rejected

    def test_round_trip(self):
        record = self._record()
        rebuilt = JobRecord.from_dict(record.to_dict())
        assert rebuilt.to_dict() == record.to_dict()
        _assert_builtin(record.to_dict())

    def test_numpy_fields_cast_in_to_dict(self):
        record = self._record()
        record.service_s = np.float64(47.5)
        record.energy_j = np.float64(1234.5)
        record.extra = {"steals": np.int64(3)}
        data = record.to_dict()
        _assert_builtin(data)
        json.dumps(data)
