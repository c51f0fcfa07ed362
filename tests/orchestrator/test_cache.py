"""On-disk study cache: round trips, misses, corruption tolerance."""

import io
import json

import numpy as np
import pytest

from repro.core.experiment import run_app_study
from repro.core.serialization import study_to_dict
from repro.orchestrator import StudyCache, StudySpec

SPEC = StudySpec(app="histogram", scale=0.05, seed=9, num_workers=16)


@pytest.fixture(scope="module")
def study():
    return run_app_study(**SPEC.run_kwargs())


@pytest.fixture()
def cache(tmp_path):
    return StudyCache(tmp_path / "cache")


class TestFileBytes:
    def test_written_file_is_json_dump_output(self, cache):
        # A real 64-core study document: the write must produce exactly
        # the bytes json.dump gives, so existing cache files stay valid
        # byte for byte.
        spec = StudySpec(
            app="linear_regression", scale=0.05, seed=7, num_workers=64
        )
        document = study_to_dict(run_app_study(**spec.run_kwargs()))
        path = cache.put_document(spec, document)
        expected = io.StringIO()
        json.dump(
            {
                "schema_version": cache.schema_version,
                "key": spec.cache_key(cache.schema_version),
                "spec": spec.to_dict(),
                "study": document,
            },
            expected,
        )
        assert path.read_text() == expected.getvalue()


class TestRoundTrip:
    def test_miss_on_empty(self, cache):
        assert cache.get(SPEC) is None
        assert SPEC not in cache
        assert len(cache) == 0

    def test_put_get(self, cache, study):
        cache.put(SPEC, study)
        assert SPEC in cache
        assert len(cache) == 1
        loaded = cache.get(SPEC)
        assert loaded is not None
        for config in study.results:
            assert loaded.normalized_time(config) == study.normalized_time(config)
            assert loaded.normalized_edp(config) == study.normalized_edp(config)
            assert np.array_equal(
                loaded.result(config).utilization,
                study.result(config).utilization,
            )
        assert loaded.design.worker_clusters == study.design.worker_clusters
        assert loaded.label == study.label

    def test_path_is_sharded_by_key(self, cache):
        key = SPEC.cache_key()
        path = cache.path_for(SPEC)
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"

    def test_other_spec_still_misses(self, cache, study):
        cache.put(SPEC, study)
        other = StudySpec(app="histogram", scale=0.05, seed=10, num_workers=16)
        assert cache.get(other) is None

    def test_clear(self, cache, study):
        cache.put(SPEC, study)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(SPEC) is None


class TestRobustness:
    def test_corrupt_entry_reads_as_miss(self, cache, study):
        cache.put(SPEC, study)
        cache.path_for(SPEC).write_text("{not json")
        assert cache.get(SPEC) is None

    def test_truncated_entry_reads_as_miss(self, cache, study):
        path = cache.put(SPEC, study)
        path.write_text(path.read_text()[: 100])
        assert cache.get(SPEC) is None

    def test_schema_mismatch_reads_as_miss(self, cache, study):
        path = cache.put(SPEC, study)
        envelope = json.loads(path.read_text())
        envelope["schema_version"] += 1
        path.write_text(json.dumps(envelope))
        assert cache.get(SPEC) is None

    def test_rewrite_after_corruption(self, cache, study):
        cache.put(SPEC, study)
        cache.path_for(SPEC).write_text("")
        assert cache.get(SPEC) is None
        cache.put(SPEC, study)
        assert cache.get(SPEC) is not None
