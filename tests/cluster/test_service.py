"""ClusterService: the discrete-event loop end to end.

These tests run real studies (tiny scale-0.05 workloads on 16-core
chips) through the session-scoped StudyCache, so each unique StudySpec
simulates once per pytest session no matter how many tests replay it.
"""

import pytest

from repro.cluster import (
    ClusterService,
    fleet_for,
    generate_trace,
    run_workload,
)
from repro.cluster.jobs import COMPLETED
from repro.cluster.policies import ClusterScheduler
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.orchestrator.cache import StudyCache
from repro.telemetry import RecordingTracer, use_tracer


@pytest.fixture(scope="module")
def smoke_run(smoke_trace, small_fleet, study_cache):
    return run_workload(smoke_trace, small_fleet, "fifo", cache=study_cache)


class TestConservation:
    def test_every_job_accounted(self, smoke_run, smoke_trace):
        assert len(smoke_run.records) == len(smoke_trace)
        report = smoke_run.report
        assert report.completed + report.rejected == report.num_jobs
        assert report.admitted == report.completed

    def test_records_in_trace_order(self, smoke_run, smoke_trace):
        assert [r.job.job_id for r in smoke_run.records] == [
            j.job_id for j in smoke_trace.jobs
        ]

    def test_completed_timeline_is_ordered(self, smoke_run):
        for record in smoke_run.records:
            if record.status != COMPLETED:
                continue
            assert record.admitted_s >= record.job.arrival_s
            assert record.dispatched_s >= record.admitted_s
            assert record.completed_s == pytest.approx(
                record.dispatched_s + record.transfer_s + record.service_s
            )
            assert record.service_s > 0.0
            assert record.energy_j > 0.0

    def test_report_totals_match_records(self, smoke_run):
        done = [r for r in smoke_run.records if r.status == COMPLETED]
        assert smoke_run.report.total_energy_j == pytest.approx(
            sum(r.energy_j for r in done)
        )
        assert smoke_run.report.makespan_s == pytest.approx(
            max(r.completed_s for r in done)
        )
        assert 0.0 < smoke_run.report.throughput_jobs_per_s


class TestChipExclusivity:
    def test_no_chip_overlap(self, smoke_run):
        # Per chip, the (dispatch, completion) intervals must not overlap.
        by_chip = {}
        for record in smoke_run.records:
            if record.status == COMPLETED:
                by_chip.setdefault(record.chip_id, []).append(
                    (record.dispatched_s, record.completed_s)
                )
        for intervals in by_chip.values():
            intervals.sort()
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                assert start >= end - 1e-9


class TestBackpressure:
    def test_bounded_queue_rejects(self, burst_trace, small_fleet, study_cache):
        result = run_workload(
            burst_trace, small_fleet, "fifo",
            cache=study_cache, max_queue_depth=1,
        )
        assert result.report.rejected > 0
        rejected = [r for r in result.records if r.rejected]
        assert all(r.chip_id is None for r in rejected)
        assert all(r.completed_s is None for r in rejected)
        assert result.report.rejection_rate == pytest.approx(
            result.report.rejected / result.report.num_jobs
        )

    def test_deeper_queue_rejects_fewer(
        self, burst_trace, small_fleet, study_cache
    ):
        shallow = run_workload(
            burst_trace, small_fleet, "fifo",
            cache=study_cache, max_queue_depth=1,
        )
        deep = run_workload(
            burst_trace, small_fleet, "fifo",
            cache=study_cache, max_queue_depth=64,
        )
        assert deep.report.rejected <= shallow.report.rejected
        assert deep.report.completed >= shallow.report.completed

    def test_queue_depth_validated(self, small_fleet):
        with pytest.raises(ValueError, match="max_queue_depth"):
            ClusterService(small_fleet, max_queue_depth=0)


class TestResidency:
    def test_transfer_charged_once_per_chip_dataset(self, smoke_run):
        seen = set()
        for record in smoke_run.records:
            if record.status != COMPLETED:
                continue
            key = (record.chip_id, record.job.dataset_key)
            if key in seen:
                assert record.transfer_s == 0.0
            else:
                assert record.transfer_s > 0.0
                seen.add(key)


class TestDeterminism:
    def test_cold_runs_are_byte_identical(
        self, smoke_trace, small_fleet, study_cache
    ):
        a = run_workload(smoke_trace, small_fleet, "fifo", cache=study_cache)
        b = run_workload(smoke_trace, small_fleet, "fifo", cache=study_cache)
        assert a.payload_json() == b.payload_json()
        assert a.replay_digest == b.replay_digest


class TestStudyDedup:
    def test_cold_then_warm_cache(self, smoke_trace, small_fleet, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        cold = run_workload(smoke_trace, small_fleet, "fifo", cache=cache)
        stats = cold.study_stats
        # Every unique (job, chip-class) spec simulated exactly once;
        # repeat jobs resolved from the in-process memo.
        assert stats["computed"] == stats["unique_specs"]
        assert stats["cache_hits"] == 0
        assert stats["computed"] < len(smoke_trace)  # dedup happened
        warm = run_workload(smoke_trace, small_fleet, "fifo", cache=cache)
        assert warm.study_stats["computed"] == 0
        assert warm.study_stats["cache_hits"] == stats["unique_specs"]
        # ...and the dedup changed no metric.
        assert warm.replay_digest == cold.replay_digest


class TestFaultComposition:
    def test_faulty_chip_serves_degraded(self, smoke_trace, study_cache):
        plan = FaultPlan(
            name="stragglers",
            events=tuple(
                FaultSpec(
                    kind=FaultKind.CORE_SLOWDOWN, time_s=0.0,
                    target=(w,), magnitude=4.0,
                )
                for w in range(4)
            ),
        )
        fleet = fleet_for(2, num_workers=16, fault_plans=[plan, None])
        service = ClusterService(fleet, "fifo", cache=study_cache)
        job = smoke_trace.jobs[0]
        degraded = service.cost_model.estimate(job, fleet.chip(0))
        clean = service.cost_model.estimate(job, fleet.chip(1))
        assert degraded.service_s > clean.service_s
        # The faulty chip resolves to a distinct cached study.
        assert job.spec_for(fleet.chip(0)) != job.spec_for(fleet.chip(1))
        # And a run over the mixed fleet still completes every job.
        result = service.run(smoke_trace)
        assert result.report.completed + result.report.rejected == len(
            smoke_trace
        )


class TestTelemetry:
    def test_counters_and_spans(self, smoke_trace, small_fleet, study_cache):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            result = run_workload(
                smoke_trace, small_fleet, "fifo", cache=study_cache
            )
        report = result.report
        assert tracer.counter_total("cluster.admitted") == report.admitted
        assert tracer.counter_total("cluster.rejected") == report.rejected
        assert tracer.counter_total("cluster.dispatched") == report.completed
        assert tracer.counter_total("cluster.completed") == report.completed
        misses = report.deadlined - report.deadlines_met
        assert tracer.counter_total("cluster.deadline_misses") == misses
        spans = tracer.spans_by(cat="cluster")
        # One execution span per completed job (plus any queue spans).
        chip_spans = [s for s in spans if str(s.tid).startswith("chip")]
        assert len(chip_spans) == report.completed
        assert tracer.histograms["cluster.latency_s"].count == report.completed

    def test_silent_without_tracer(self, smoke_trace, small_fleet, study_cache):
        # NULL_TRACER path: must run cleanly with telemetry disabled.
        result = run_workload(
            smoke_trace, small_fleet, "fifo", cache=study_cache
        )
        assert result.report.completed > 0


class TestPolicyMisbehavior:
    def test_invalid_pick_raises(self, smoke_trace, small_fleet, study_cache):
        class RogueScheduler(ClusterScheduler):
            name = "rogue"

            def select(self, now, queue, free_chips, ctx):
                if not queue or not free_chips:
                    return None
                # Return a job that is not in the queue.
                bogus = queue[0]
                fake = type(bogus)(
                    job_id=10_000, app=bogus.app, arrival_s=0.0
                )
                return fake, free_chips[0]

        service = ClusterService(
            small_fleet, RogueScheduler(), cache=study_cache
        )
        with pytest.raises(RuntimeError, match="invalid"):
            service.run(smoke_trace)

    def test_equal_copy_is_not_the_queued_job(
        self, smoke_trace, small_fleet, study_cache
    ):
        # ClusterJob is a frozen dataclass with field equality, so a
        # policy returning a *reconstructed* copy of a queued job used
        # to slip past the equality-based membership check and remove.
        # The dispatch contract is identity: the policy must hand back
        # one of the exact objects it was given.
        from dataclasses import replace

        class CopyScheduler(ClusterScheduler):
            name = "copy"

            def select(self, now, queue, free_chips, ctx):
                if not queue or not free_chips:
                    return None
                return replace(queue[0]), free_chips[0]

        service = ClusterService(
            small_fleet, CopyScheduler(), cache=study_cache
        )
        with pytest.raises(RuntimeError, match="invalid"):
            service.run(smoke_trace)


class TestContextBeforeRun:
    def test_residency_resets_between_runs(
        self, smoke_trace, small_fleet, study_cache
    ):
        service = ClusterService(small_fleet, "fifo", cache=study_cache)
        first = service.run(smoke_trace)
        # A new run starts cold: the first run's residency must not leak
        # into the second trace's transfer charges.
        second = service.run(smoke_trace)
        assert [r.transfer_s for r in second.records] == [
            r.transfer_s for r in first.records
        ]
        assert [r.completed_s for r in second.records] == [
            r.completed_s for r in first.records
        ]


class TestCompletionsBeforeArrivals:
    def test_freed_chip_visible_to_simultaneous_arrival(self, tmp_path):
        # One chip, queue depth 1: job B arrives exactly when job A
        # completes; the freed chip must admit and dispatch B, not
        # reject it.
        cache = StudyCache(tmp_path / "cache")
        fleet = fleet_for(1, num_workers=16)
        probe = run_workload(
            generate_trace("probe", seed=1, num_jobs=1, mean_gap_s=0.0,
                           apps=(("histogram", 1.0),), dataset_seeds=(9,)),
            fleet, "fifo", cache=cache,
        )
        first = probe.records[0]
        completion = first.completed_s
        trace = generate_trace(
            "edge", seed=1, num_jobs=1, mean_gap_s=0.0,
            apps=(("histogram", 1.0),), dataset_seeds=(9,),
        )
        from repro.cluster.arrivals import ArrivalTrace
        from repro.cluster.jobs import ClusterJob

        b = ClusterJob(
            job_id=1, app="histogram", arrival_s=completion,
            seed=9, input_mb=trace.jobs[0].input_mb,
        )
        edge = ArrivalTrace(name="edge", seed=1, jobs=trace.jobs + (b,))
        result = run_workload(
            edge, fleet, "fifo", cache=cache, max_queue_depth=1
        )
        assert result.report.rejected == 0
        assert result.records[1].dispatched_s == pytest.approx(completion)
