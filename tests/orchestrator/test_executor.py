"""Campaign execution: serial fallback, parallel fan-out, retries, resume.

The injected-fault workers below are module-level so the process pool
can ship them to forked workers by reference; cross-process attempt
counting goes through marker files under a directory published in the
environment (forked workers inherit it).
"""

import os
import pathlib
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.experiment import run_app_study
from repro.core.serialization import study_summary_dict, study_to_dict
from repro.orchestrator import (
    CampaignError,
    StudyCache,
    StudySpec,
    run_campaign,
)
from repro.orchestrator.executor import compute_study_document
from repro.utils.jsonutil import canonical_json

SPEC_A = StudySpec(app="histogram", scale=0.05, seed=9, num_workers=16)
SPEC_B = StudySpec(app="histogram", scale=0.05, seed=10, num_workers=16)
#: Seed the fault-injecting workers key on.
BAD_SEED = 13
SPEC_BAD = StudySpec(app="histogram", scale=0.05, seed=BAD_SEED, num_workers=16)

FLAKY_DIR_ENV = "REPRO_TEST_FLAKY_DIR"


def failing_worker(fields):
    """Permanently fails the BAD_SEED unit; others run normally."""
    if fields["seed"] == BAD_SEED:
        raise ValueError("injected permanent failure")
    return compute_study_document(fields)


def flaky_worker(fields):
    """Fails each unit's first attempt, succeeds on the retry."""
    marker = pathlib.Path(os.environ[FLAKY_DIR_ENV]) / f"seed{fields['seed']}"
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("injected transient failure")
    return compute_study_document(fields)


def dying_worker(fields):
    """Kills its worker process outright on the BAD_SEED unit."""
    if fields["seed"] == BAD_SEED:
        os._exit(1)
    return compute_study_document(fields)


def sleepy_worker(fields):
    # The unit is already timed out and orphaned by the time this wakes
    # up; return a dummy document so pool shutdown only waits the sleep.
    time.sleep(2.0)
    return {}


@pytest.fixture()
def flaky_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(FLAKY_DIR_ENV, str(tmp_path))
    return tmp_path


class TestSerialFallback:
    def test_jobs1_returns_the_memoized_study(self):
        campaign = run_campaign([SPEC_A], jobs=1)
        assert campaign.ok
        assert campaign.study(SPEC_A) is run_app_study(**SPEC_A.run_kwargs())

    def test_manifest_records_computed(self):
        campaign = run_campaign([SPEC_A], jobs=1)
        (record,) = campaign.manifest.records
        assert record.status in ("computed",)
        assert record.attempts == 1
        assert record.key == SPEC_A.cache_key()

    def test_duplicates_collapse(self):
        campaign = run_campaign([SPEC_A, StudySpec(app="hist", scale=0.05,
                                                   seed=9, num_workers=16)])
        assert campaign.manifest.num_units == 1

    def test_serial_retry_then_success(self, flaky_dir):
        campaign = run_campaign(
            [SPEC_A], jobs=1, retries=1, worker=flaky_worker
        )
        assert campaign.ok
        (record,) = campaign.manifest.records
        assert record.attempts == 2
        assert campaign.manifest.num_retries == 1

    def test_serial_retry_exhaustion_surfaces_original_error(self):
        campaign = run_campaign(
            [SPEC_BAD], jobs=1, retries=1, worker=failing_worker
        )
        assert not campaign.ok
        error = campaign.errors[SPEC_BAD]
        assert isinstance(error, ValueError)
        assert "injected permanent failure" in str(error)
        (record,) = campaign.manifest.records
        assert record.failed and record.attempts == 2
        with pytest.raises(CampaignError) as excinfo:
            campaign.raise_failures()
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_bad_jobs_and_retries_rejected(self):
        with pytest.raises(ValueError):
            run_campaign([SPEC_A], jobs=0)
        with pytest.raises(ValueError):
            run_campaign([SPEC_A], retries=-1)


class TestParallel:
    def test_parallel_matches_serial_byte_for_byte(self):
        campaign = run_campaign([SPEC_A, SPEC_B], jobs=2)
        campaign.raise_failures()
        assert campaign.manifest.num_computed == 2
        for spec in (SPEC_A, SPEC_B):
            import json

            direct = run_app_study(**spec.run_kwargs())
            assert json.dumps(
                study_summary_dict(campaign.study(spec)), sort_keys=True
            ) == json.dumps(study_summary_dict(direct), sort_keys=True)

    def test_failure_does_not_abort_siblings(self):
        campaign = run_campaign(
            [SPEC_A, SPEC_BAD], jobs=2, retries=0, worker=failing_worker
        )
        assert SPEC_A in campaign.studies
        assert SPEC_BAD in campaign.errors
        assert campaign.manifest.num_computed == 1
        assert campaign.manifest.num_failed == 1

    def test_parallel_retry_then_success(self, flaky_dir):
        campaign = run_campaign(
            [SPEC_A, SPEC_B], jobs=2, retries=1, worker=flaky_worker
        )
        campaign.raise_failures()
        assert campaign.manifest.num_retries == 2
        for record in campaign.manifest.records:
            assert record.attempts == 2

    def test_dead_worker_does_not_sink_the_campaign(self):
        campaign = run_campaign(
            [SPEC_A, SPEC_BAD, SPEC_B], jobs=2, retries=1, worker=dying_worker
        )
        assert set(campaign.errors) == {SPEC_BAD}
        assert isinstance(campaign.errors[SPEC_BAD], BrokenProcessPool)
        records = {r.label: r for r in campaign.manifest.records}
        dead = records[SPEC_BAD.label]
        assert dead.failed and dead.attempts == 2
        assert "terminated abruptly" in dead.error
        for spec in (SPEC_A, SPEC_B):
            assert records[spec.label].status == "computed"
            assert records[spec.label].attempts == 1
            serial = run_app_study(**spec.run_kwargs(), use_cache=False)
            assert canonical_json(
                study_to_dict(campaign.study(spec))
            ) == canonical_json(study_to_dict(serial))

    def test_timeout_is_recorded_as_failure(self):
        campaign = run_campaign(
            [SPEC_A], jobs=2, retries=0, timeout_s=0.2, worker=sleepy_worker
        )
        assert not campaign.ok
        assert isinstance(campaign.errors[SPEC_A], TimeoutError)
        (record,) = campaign.manifest.records
        assert record.failed
        assert "exceeded" in record.error


class TestCacheIntegration:
    def test_cold_then_warm(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        cold = run_campaign([SPEC_A, SPEC_B], jobs=2, cache=cache)
        cold.raise_failures()
        assert cold.manifest.num_computed == 2
        assert cold.manifest.hit_rate == 0.0

        warm = run_campaign([SPEC_A, SPEC_B], jobs=2, cache=cache)
        warm.raise_failures()
        assert warm.manifest.num_cached == 2
        assert warm.manifest.hit_rate == 1.0
        import json

        assert json.dumps(
            study_summary_dict(warm.study(SPEC_A)), sort_keys=True
        ) == json.dumps(study_summary_dict(cold.study(SPEC_A)), sort_keys=True)

    def test_cache_accepts_directory_path(self, tmp_path):
        campaign = run_campaign([SPEC_A], cache=str(tmp_path / "by-path"))
        campaign.raise_failures()
        assert campaign.manifest.cache_dir == str(tmp_path / "by-path")
        warm = run_campaign([SPEC_A], cache=str(tmp_path / "by-path"))
        assert warm.manifest.num_cached == 1

    def test_resume_after_partial_failure(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        first = run_campaign(
            [SPEC_A, SPEC_BAD], jobs=2, retries=0,
            cache=cache, worker=failing_worker,
        )
        assert first.manifest.num_computed == 1
        assert first.manifest.num_failed == 1

        # Second invocation with a healthy worker: the completed unit is
        # served from disk, only the failed one is recomputed.
        second = run_campaign([SPEC_A, SPEC_BAD], jobs=2, cache=cache)
        second.raise_failures()
        by_key = {r.key: r for r in second.manifest.records}
        assert by_key[SPEC_A.cache_key()].status == "cached"
        assert by_key[SPEC_BAD.cache_key()].status == "computed"

    def test_progress_callback_sees_every_unit(self, tmp_path):
        seen = []
        campaign = run_campaign(
            [SPEC_A, SPEC_B], jobs=1, cache=StudyCache(tmp_path / "cache"),
            progress=seen.append,
        )
        campaign.raise_failures()
        assert [r.status for r in seen] == ["computed", "computed"]
        seen.clear()
        run_campaign(
            [SPEC_A, SPEC_B], jobs=1, cache=StudyCache(tmp_path / "cache"),
            progress=seen.append,
        )
        assert [r.status for r in seen] == ["cached", "cached"]
