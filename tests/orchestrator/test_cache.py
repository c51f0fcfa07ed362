"""On-disk study cache: round trips, misses, corruption tolerance, and
the packed float arrays and trace column table of the cache file."""

import copy
import hashlib
import io
import json
import struct

import numpy as np
import pytest

from repro.core.experiment import clear_study_cache
from repro.core.serialization import study_to_dict
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.orchestrator import StudyCache, StudySpec, run_campaign
from repro.orchestrator.cache import PACKED_PATHS, pack_document
from repro.utils.jsonutil import canonical_json

SPEC = StudySpec(app="histogram", scale=0.05, seed=9, num_workers=16)

PLAN = FaultPlan(
    events=(
        FaultSpec(FaultKind.CORE_FAILURE, 5.0, (3,)),
        FaultSpec(FaultKind.ISLAND_THROTTLE, 2.0, (1,), 1.0),
    ),
    name="cache",
)


@pytest.fixture(scope="module")
def study():
    return SPEC.run()


@pytest.fixture()
def cache(tmp_path):
    return StudyCache(tmp_path / "cache")


def digest(study) -> str:
    return hashlib.sha256(
        canonical_json(study_to_dict(study)).encode("utf-8")
    ).hexdigest()


def packed_values(document):
    """Every value at a PACKED_PATHS path of *document*, path by path
    (paths *document* does not have are skipped)."""
    values = []
    for path in PACKED_PATHS:
        nodes = [document]
        for key in path:
            nodes = [
                node[k] for node in nodes
                for k in (node if key == "*" else [key]) if k in node
            ]
        values.extend(nodes)
    return values


class TestFileBytes:
    def test_written_file_is_json_dump_output(self, cache):
        # A real 64-core study document: the C encoder must write exactly
        # the bytes json.dump gives for the packed envelope.
        spec = StudySpec(
            app="linear_regression", scale=0.05, seed=7, num_workers=64
        )
        document = study_to_dict(spec.run())
        path = cache.put_document(spec, document)
        expected = io.StringIO()
        json.dump(
            {
                "schema_version": cache.schema_version,
                "key": spec.cache_key(cache.schema_version),
                "spec": spec.to_dict(),
                "study": pack_document(document),
            },
            expected,
        )
        assert path.read_text() == expected.getvalue()


class TestPackedArrays:
    @pytest.mark.parametrize(
        "spec",
        [
            SPEC,
            StudySpec(app="linear_regression", scale=0.05, seed=7, num_workers=64),
            StudySpec(app="linear_regression", scale=0.05, seed=7, num_workers=256),
            StudySpec(app="histogram", scale=0.05, seed=9, num_workers=16,
                      fault_plan=PLAN),
            StudySpec(app="histogram", scale=0.05, seed=9, num_workers=16,
                      power_cap=20.0),
        ],
        ids=["16", "64", "256", "fault_plan", "power_cap"],
    )
    def test_cache_read_has_the_cold_digest(self, cache, spec):
        cold = spec.run()
        cache.put(spec, cold)
        warm = cache.get(spec)
        assert warm is not None
        assert digest(warm) == digest(cold)

    def test_file_stores_every_packed_path_packed(self, cache, study):
        path = cache.put(SPEC, study)
        stored = json.loads(path.read_text())["study"]
        members = packed_values(stored)
        # task costs + input bytes, traffic + utilization, then three
        # vectors per configuration
        assert len(members) == 2 + 2 + 3 * len(study.results)
        for member in members:
            assert set(member) == {"dtype", "shape", "data"}
            assert member["dtype"] == "<f8"

    def test_special_values_round_trip_bit_for_bit(self, cache):
        nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
        special = [
            -0.0, float("nan"), nan_payload, float("inf"), -float("inf"),
            5e-324, -2.2250738585072e-309, 1.0,
        ]
        document = {
            "design": {
                "traffic": [special, special[::-1]],
                "utilization": special,
            },
            "results": {
                "a": {
                    "busy_s": special,
                    "committed_instructions": special[::-1],
                    "worker_frequencies_hz": [],
                },
            },
        }
        cache.put_document(SPEC, document)
        loaded = cache.load_document(SPEC)
        for cold, warm in zip(packed_values(document), packed_values(loaded)):
            assert isinstance(warm, np.ndarray)
            assert warm.dtype == np.float64 and warm.dtype.isnative
            assert warm.flags.writeable
            expected = np.asarray(cold, dtype=np.float64)
            assert warm.shape == expected.shape
            assert warm.tobytes() == expected.tobytes()

    def test_put_leaves_the_document_unchanged(self, cache, study):
        document = study_to_dict(study)
        before = copy.deepcopy(document)
        cache.put_document(SPEC, document)
        assert document == before
        assert all(isinstance(v, list) for v in packed_values(document))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda member: {
                **member, "data": member["data"][:4] + "!!!!" + member["data"][4:]
            },
            lambda member: {**member, "data": member["data"][:-8]},
            lambda member: {**member, "dtype": "<f4"},
            lambda member: {**member, "dtype": ">f8"},
            lambda member: {**member, "shape": [member["shape"][0] + 1]},
            lambda member: {**member, "shape": ["16"]},
            lambda member: {k: v for k, v in member.items() if k != "data"},
            lambda member: [0.0] * member["shape"][0],
        ],
        ids=[
            "bad_base64", "short_data", "dtype_f4", "dtype_big_endian",
            "shape_mismatch", "shape_not_int", "no_data", "list",
        ],
    )
    @pytest.mark.parametrize(
        "where",
        [
            ("design", "utilization"),
            ("results", "nvfi_mesh", "busy_s"),
            ("trace", "tasks", "input_bytes"),
        ],
    )
    def test_malformed_member_misses_until_rewritten(
        self, cache, study, corrupt, where
    ):
        path = cache.put(SPEC, study)
        envelope = json.loads(path.read_text())
        node = envelope["study"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = corrupt(node[where[-1]])
        path.write_text(json.dumps(envelope))
        assert cache.load_document(SPEC) is None
        assert cache.get(SPEC) is None
        assert SPEC not in cache
        cache.put(SPEC, study)
        assert digest(cache.get(SPEC)) == digest(study)


def _set(path, value):
    """A corruption that puts *value* at *path* of the stored document."""

    def corrupt(document):
        for key in path[:-1]:
            document = document[key]
        document[path[-1]] = value

    return corrupt


class TestWrongTypeMembers:
    """A member of the wrong container type anywhere in the stored
    document is a miss, and the campaign recomputes and rewrites the
    entry."""

    SPEC = StudySpec(
        app="histogram", scale=0.05, seed=9, num_workers=16, fault_plan=PLAN
    )

    @pytest.mark.parametrize(
        "corrupt",
        [
            _set(("trace", "tasks", "input_bytes"), [1, 2]),
            _set(("results", "nvfi_mesh", "faults"), "x"),
            _set(("results",), []),
        ],
        ids=["trace_input_bytes_list", "faults_str", "results_list"],
    )
    def test_misses_and_the_campaign_rewrites_it(self, cache, corrupt):
        cold = self.SPEC.run()
        path = cache.put(self.SPEC, cold)
        envelope = json.loads(path.read_text())
        corrupt(envelope["study"])
        path.write_text(json.dumps(envelope))
        assert cache.get(self.SPEC) is None
        assert self.SPEC not in cache
        clear_study_cache()
        campaign = run_campaign([self.SPEC], jobs=1, cache=cache)
        assert campaign.manifest.records[0].status == "computed"
        assert digest(cache.get(self.SPEC)) == digest(cold)


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
