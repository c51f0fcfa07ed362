"""Preemption, speed scaling and tech routing through the full engine.

Covers the engine-level guarantees the unit tests can't: checkpointed
work is charged exactly once, an interrupted transfer grants no
residency, and the committed deadline-heavy demo trace shows
``speed_scale`` beating plain ``edf`` on deadlines at lower energy.
"""

import json
import pathlib

import pytest

from repro.analysis.report import cluster_section
from repro.cluster import (
    ArrivalTrace,
    ClusterJob,
    fleet_for,
    preset_trace,
    run_workload,
)
from repro.cluster.jobs import COMPLETED, TERMINAL_STATUSES
from repro.cluster.record import replay, verify_replay

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "data" / "cluster_golden"


@pytest.fixture(scope="module")
def demo_trace():
    with open(GOLDEN_DIR / "deadline_demo.trace.json") as handle:
        return ArrivalTrace.from_dict(json.load(handle))


class TestEdfPreemptEngine:
    @pytest.fixture(scope="class")
    def runs(self, small_fleet, study_cache):
        trace = preset_trace("deadline_tight", seed=7)
        edf = run_workload(trace, small_fleet, "edf", cache=study_cache)
        pre = run_workload(
            trace, small_fleet, "edf_preempt", cache=study_cache
        )
        return edf, pre

    def test_preemption_happens_and_helps(self, runs):
        edf, pre = runs
        assert pre.report.preemptions > 0
        assert pre.report.deadlines_met > edf.report.deadlines_met
        assert pre.report.completed == edf.report.completed

    def test_every_record_terminal(self, runs):
        _, pre = runs
        for record in pre.records:
            assert record.status in TERMINAL_STATUSES

    def test_checkpoint_charges_work_exactly_once(self, runs):
        edf, pre = runs
        preempted = [r for r in pre.records if r.preemptions > 0]
        assert preempted
        for record in preempted:
            segments = record.extra["segments"]
            assert len(segments) == record.preemptions + 1
            # Segments partition the job's work fraction in [0, 1]...
            assert segments[0]["from"] == 0.0
            assert segments[-1]["to"] == 1.0
            for left, right in zip(segments, segments[1:]):
                assert right["from"] == left["to"]
                assert left["from"] <= left["to"]
            # ...and their charges sum to the record totals, so no
            # joule or second is counted twice across segments.
            assert sum(s["service_s"] for s in segments) == pytest.approx(
                record.service_s
            )
            assert sum(s["energy_j"] for s in segments) == pytest.approx(
                record.energy_j
            )
            assert sum(s["transfer_s"] for s in segments) == pytest.approx(
                record.transfer_s
            )
        # Fleet-level: the preempted schedule never charges more energy
        # than running every completed job once at nominal speed.
        assert pre.report.total_energy_j <= edf.report.total_energy_j * (
            1.0 + 1e-9
        )

    def test_preemptive_run_replays_byte_identical(self, runs, study_cache):
        _, pre = runs
        fresh = replay(pre, cache=study_cache)
        assert verify_replay(pre, fresh) is None


class TestTransferPreemptionResidency:
    """An interrupted staging transfer must not leave the dataset
    resident (the dispatch-time-residency bug this PR removes)."""

    @pytest.fixture(scope="class")
    def run(self, study_cache):
        fleet = fleet_for(1, num_workers=16)
        # Victim: best-effort, huge input (8.192 s transfer at 1 Gbps).
        victim = ClusterJob(
            job_id=0, app="wordcount", arrival_s=0.0, scale=0.05, seed=9,
            input_mb=1024.0,
        )
        # Challenger: different dataset, arrives mid-transfer with a
        # deadline only an immediate dispatch can meet.
        from repro.cluster import CostModel

        estimate = CostModel(study_cache).estimate(
            ClusterJob(job_id=1, app="histogram", arrival_s=0.2, seed=9),
            fleet.chips[0],
        )
        challenger = ClusterJob(
            job_id=1, app="histogram", arrival_s=0.2, scale=0.05, seed=9,
            input_mb=8.0,
            deadline_s=0.2 + fleet.transfer_s(8.0) + estimate.service_s + 0.5,
        )
        trace = ArrivalTrace(
            name="transfer_preempt", seed=1, jobs=(victim, challenger)
        )
        return run_workload(trace, fleet, "edf_preempt", cache=study_cache)

    def test_transfer_is_cut_and_wasted_time_accounted(self, run):
        victim = run.records[0]
        assert victim.preemptions == 1
        assert victim.status == COMPLETED
        # Preempted 0.2 s into an 8.192 s transfer: the spent wire time
        # is wasted...
        assert victim.wasted_transfer_s == pytest.approx(0.2)
        # ...and no service progress was checkpointed.
        wasted_segment = victim.extra["segments"][0]
        assert wasted_segment["from"] == wasted_segment["to"] == 0.0
        assert wasted_segment["service_s"] == 0.0
        assert wasted_segment["energy_j"] == 0.0

    def test_no_residency_from_the_interrupted_transfer(self, run):
        victim = run.records[0]
        fleet = run.fleet
        full_transfer = fleet.transfer_s(victim.job.input_mb)
        # The re-dispatch pays the FULL staging cost again: 0.2 s spent
        # on the cut transfer plus 8.192 s for the complete one.  Were
        # residency granted at dispatch (the old bug), the retry would
        # transfer nothing and this total would be just 0.2 s.
        assert victim.transfer_s == pytest.approx(0.2 + full_transfer)

    def test_challenger_meets_its_deadline(self, run):
        challenger = run.records[1]
        assert challenger.deadline_met is True
        assert challenger.preemptions == 0


class TestSpeedScaleCriterion:
    """The committed deadline-heavy trace: speed_scale strictly beats
    EDF on deadlines met, at equal-or-lower energy."""

    @pytest.fixture(scope="class")
    def runs(self, demo_trace, study_cache):
        fleet = fleet_for(2, num_workers=16)
        edf = run_workload(demo_trace, fleet, "edf", cache=study_cache)
        scaled = run_workload(
            demo_trace, fleet, "speed_scale", cache=study_cache
        )
        return edf, scaled

    def test_strictly_more_deadlines_at_lower_energy(self, runs):
        edf, scaled = runs
        assert scaled.report.deadlines_met > edf.report.deadlines_met
        assert scaled.report.total_energy_j <= edf.report.total_energy_j
        assert scaled.report.completed == edf.report.completed

    def test_slack_job_ran_sub_nominal(self, runs):
        _, scaled = runs
        dvfs = [r.extra.get("dvfs") for r in scaled.records]
        assert any(label is not None for label in dvfs)

    def test_report_table_shows_the_comparison(self, runs):
        edf, scaled = runs
        section = cluster_section([edf, scaled])
        assert "deadline_demo" in section
        assert "| edf " in section and "| speed_scale " in section
        assert "goodput (/ks)" in section

    def test_scaled_run_replays_byte_identical(self, runs, study_cache):
        _, scaled = runs
        fresh = replay(scaled, cache=study_cache)
        assert verify_replay(scaled, fresh) is None


class TestTechAwareEngine:
    def test_goodput_counts_only_met_deadlines(self):
        from repro.cluster.metrics import SloReport

        report = SloReport(
            policy="x", completed=10, deadlined=4, deadlines_met=1,
            makespan_s=100.0,
        )
        assert report.goodput_jobs_per_s == pytest.approx(0.07)
        report.preemptions = 2
        assert report.to_dict()["goodput_jobs_per_s"] == pytest.approx(0.07)
