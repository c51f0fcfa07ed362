"""End-to-end instrumentation: spans/counters recorded by a real study.

Runs the full pipeline twice under fresh :class:`RecordingTracer`\\ s (with
the study memo bypassed) so one module-scoped fixture feeds both the
span-content checks and the byte-identical-export determinism regression.
"""

import pytest

from repro.core.experiment import (
    NVFI_MESH,
    VFI1_MESH,
    VFI2_MESH,
    VFI2_WINOC,
    run_app_study,
)
from repro.mapreduce.tasks import Phase
from repro.telemetry import RecordingTracer, use_tracer
from repro.telemetry.export import write_chrome_trace, write_jsonl
from repro.telemetry.summary import (
    island_summary,
    phase_summary,
    trace_platforms,
)

APP = "histogram"
SCALE = 0.05
SEED = 11
WORKERS = 16
CONFIGS = (NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC)


def _traced_run():
    tracer = RecordingTracer()
    with use_tracer(tracer):
        study = run_app_study(
            APP, scale=SCALE, seed=SEED, num_workers=WORKERS, use_cache=False
        )
    return tracer, study


@pytest.fixture(scope="module")
def traced_runs():
    return _traced_run(), _traced_run()


class TestInstrumentation:
    def test_all_platforms_record_phases(self, traced_runs):
        (tracer, study), _ = traced_runs
        platforms = {study.result(c).platform_name for c in CONFIGS}
        assert set(trace_platforms(tracer)) == platforms

    def test_phase_summary_matches_phase_stats(self, traced_runs):
        """Acceptance check: summed spans == PhaseStats to float tolerance."""
        (tracer, study), _ = traced_runs
        for config in CONFIGS:
            result = study.result(config)
            measured = phase_summary(tracer, pid=result.platform_name)
            phases = measured[result.platform_name]
            for phase in Phase:
                assert phases.get(phase.value, 0.0) == pytest.approx(
                    result.phase_duration_s(phase)
                ), (config, phase)

    def test_task_spans_cover_busy_time(self, traced_runs):
        (tracer, study), _ = traced_runs
        result = study.result(VFI2_WINOC)
        islands = island_summary(
            tracer, result.platform_name, study.design.worker_clusters
        )
        assert sum(entry["tasks"] for entry in islands) > 0
        assert sum(entry["busy_s"] for entry in islands) == pytest.approx(
            float(result.busy_s.sum())
        )

    def test_steal_counters_recorded_per_platform(self, traced_runs):
        (tracer, study), _ = traced_runs
        for config in CONFIGS:
            pid = study.result(config).platform_name
            attempts = tracer.counter_total("sched.steal_attempts", key=pid)
            steals = tracer.counter_total("sched.steals", key=pid)
            rejections = tracer.counter_total("sched.cap_rejections", key=pid)
            assert attempts >= steals + rejections
        # The Eq. (3) cap only constrains the VFI designs.
        assert tracer.counter_total("sched.cap_rejections", key="nvfi-mesh") == 0

    def test_flit_counters_split_by_medium(self, traced_runs):
        (tracer, study), _ = traced_runs
        mesh = study.result(VFI2_MESH).platform_name
        winoc = study.result(VFI2_WINOC).platform_name
        assert tracer.counter_total("noc.flits.wired", key=mesh) > 0
        assert tracer.counter_total("noc.flits.wireless", key=mesh) == 0
        assert tracer.counter_total("noc.flits.wireless", key=winoc) > 0

    def test_wireless_telemetry_only_on_winoc(self, traced_runs):
        (tracer, study), _ = traced_runs
        winoc = study.result(VFI2_WINOC).platform_name
        occupancy = [s for s in tracer.samples if "occupancy" in s.name]
        assert occupancy
        assert {sample.pid for sample in occupancy} == {winoc}
        assert f"noc.token_wait_s/{winoc}" in tracer.histograms
        assert not any(
            name.startswith("noc.token_wait_s/") and winoc not in name
            for name in tracer.histograms
        )

    def test_wall_spans_cover_pipeline_and_design_flow(self, traced_runs):
        (tracer, _), _ = traced_runs
        stages = {s.name for s in tracer.spans_by(cat="study", wall=True)}
        assert {
            "study.app_run", "study.design", "study.mapping", "study.sim_nvfi",
        } <= stages
        vfi = {s.name for s in tracer.spans_by(cat="vfi", wall=True)}
        assert {"vfi.clustering", "vfi.vf_assign"} <= vfi

    def test_winoc_build_and_calibration_are_spanned(self, traced_runs):
        """The WiNoC build has its own study stage, and the calibration
        inside it carries how many candidate routings it priced."""
        (tracer, _), _ = traced_runs
        builds = [
            s for s in tracer.spans_by(cat="study", wall=True)
            if s.name == "study.platform_winoc"
        ]
        calibrations = [
            s for s in tracer.spans_by(cat="noc", wall=True)
            if s.name == "noc.calibration"
        ]
        assert len(builds) == 1 and len(calibrations) == 1
        build, calibration = builds[0], calibrations[0]
        assert build.args["app"] == APP
        assert calibration.args["candidates"] >= 1
        assert build.start_s <= calibration.start_s
        assert calibration.end_s <= build.end_s


class TestDeterminism:
    def test_exports_byte_identical_across_runs(self, traced_runs, tmp_path):
        """Same StudySpec seed -> byte-identical exported traces."""
        (tracer_a, _), (tracer_b, _) = traced_runs
        paths = []
        for label, tracer in (("a", tracer_a), ("b", tracer_b)):
            chrome = tmp_path / f"{label}.trace.json"
            jsonl = tmp_path / f"{label}.jsonl"
            write_chrome_trace(tracer, chrome)
            write_jsonl(tracer, jsonl)
            paths.append((chrome, jsonl))
        (chrome_a, jsonl_a), (chrome_b, jsonl_b) = paths
        assert chrome_a.read_bytes() == chrome_b.read_bytes()
        assert jsonl_a.read_bytes() == jsonl_b.read_bytes()

    def test_wall_spans_recorded_but_excluded(self, traced_runs):
        (tracer, _), _ = traced_runs
        assert any(span.wall for span in tracer.spans)
