"""Fault injection through the full simulator: the PR's acceptance
criteria.

* golden bit-identity: no plan and an empty plan serialize bit-for-bit
  identically to the pre-fault simulator output;
* determinism: the same seeded plan run twice yields byte-identical
  serialized results and byte-identical telemetry exports;
* conservation: a core failure re-executes the killed work, so total
  committed instructions match the clean run exactly.
"""

import json

import numpy as np
import pytest

from repro.apps import create_app
from repro.core.platforms import build_nvfi_mesh, geometry_for
from repro.core.serialization import result_from_dict, result_to_dict
from repro.faults import FaultKind, FaultPlan, FaultSpec, preset_plan
from repro.mapreduce.scheduler import (
    CappedStealingPolicy,
    DefaultStealingPolicy,
)
from repro.sim.config import SimulationParams
from repro.sim.system import SystemSimulator, simulate
from repro.telemetry import RecordingTracer, use_tracer
from repro.telemetry.export import write_jsonl


@pytest.fixture(scope="module")
def case():
    app = create_app("histogram", scale=0.05, seed=9)
    trace = app.run(num_workers=16)
    return app.profile.l2_locality, trace


@pytest.fixture(scope="module")
def platform():
    return build_nvfi_mesh(geometry_for(16))


@pytest.fixture(scope="module")
def clean(case, platform):
    locality, trace = case
    return simulate(platform, trace, locality=locality)


def dumps(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def run_plan(case, platform, plan):
    locality, trace = case
    return simulate(
        platform, trace, locality=locality, params=SimulationParams(fault_plan=plan)
    )


class TestGoldenBitIdentity:
    def test_no_plan_and_empty_plan_are_bit_identical(self, case, platform, clean):
        locality, trace = case
        default_params = simulate(
            platform, trace, locality=locality, params=SimulationParams()
        )
        empty_plan = run_plan(case, platform, FaultPlan())
        golden = dumps(clean)
        assert dumps(default_params) == golden
        assert dumps(empty_plan) == golden

    def test_clean_document_has_no_faults_key(self, clean):
        assert clean.faults is None
        assert "faults" not in result_to_dict(clean)


class TestDeterminism:
    def test_same_plan_twice_is_bit_identical(self, case, platform, clean):
        plan = preset_plan("mixed", clean.total_time_s, 16)
        first = run_plan(case, platform, plan)
        second = run_plan(case, platform, plan)
        assert dumps(first) == dumps(second)

    def test_telemetry_exports_byte_identical(self, case, platform, clean, tmp_path):
        plan = preset_plan("mixed", clean.total_time_s, 16)
        paths = []
        for attempt in ("a", "b"):
            tracer = RecordingTracer()
            with use_tracer(tracer):
                run_plan(case, platform, plan)
            path = tmp_path / f"trace_{attempt}.jsonl"
            write_jsonl(tracer, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # The export actually contains fault records.
        text = paths[0].read_text()
        assert "fault.core_failure" in text
        assert "faults.events_applied" in text


class TestCoreFailure:
    @pytest.fixture(scope="class")
    def faulted(self, case, platform, clean):
        plan = preset_plan("core_failure", clean.total_time_s, 16)
        return run_plan(case, platform, plan)

    def test_all_work_accounted(self, clean, faulted):
        """Re-execution conserves committed instructions exactly: every
        task killed mid-flight runs again to completion elsewhere."""
        assert faulted.committed_instructions.sum() == pytest.approx(
            clean.committed_instructions.sum(), rel=0, abs=0
        )

    def test_makespan_inflates(self, clean, faulted):
        assert faulted.total_time_s > clean.total_time_s

    def test_impact_records_the_failure(self, faulted):
        impact = faulted.faults
        assert impact is not None
        assert impact.failed_workers == [4]
        assert impact.reexecuted_tasks + impact.substituted_tasks > 0
        assert impact.lost_busy_s >= 0.0
        assert len(impact.events_applied) == 1

    def test_dead_worker_stops_accruing_busy_time(self, clean, faulted):
        victim = faulted.faults.failed_workers[0]
        # The victim cannot be busier than the clean run for longer than
        # its failure instant allows.
        fail_at = faulted.faults.events_applied[0]["time_s"]
        assert faulted.busy_s[victim] <= fail_at + 1e-9

    def test_roundtrips_through_serialization(self, faulted):
        rebuilt = result_from_dict(result_to_dict(faulted))
        assert rebuilt.faults is not None
        assert rebuilt.faults.to_dict() == faulted.faults.to_dict()
        assert rebuilt.total_time_s == faulted.total_time_s
        assert np.array_equal(rebuilt.busy_s, faulted.busy_s)


class TestOtherScenarios:
    def test_straggler_slows_the_run(self, case, platform, clean):
        plan = preset_plan("straggler", clean.total_time_s, 16)
        result = run_plan(case, platform, plan)
        assert result.total_time_s > clean.total_time_s
        assert result.faults.failed_workers == []
        assert result.committed_instructions.sum() == pytest.approx(
            clean.committed_instructions.sum()
        )

    def test_throttle_records_island_and_completes(self, case, platform, clean):
        plan = preset_plan("throttle", clean.total_time_s, 16)
        result = run_plan(case, platform, plan)
        assert result.faults.throttled_islands == [1]
        assert result.total_time_s >= clean.total_time_s

    def test_link_failure_reroutes_and_completes(self, case, platform, clean):
        plan = preset_plan("link_failure", clean.total_time_s, 16)
        result = run_plan(case, platform, plan)
        assert len(result.faults.events_applied) == 1
        assert result.faults.events_skipped == 0
        # Longer detours move at least as many bit-hops over the fabric.
        assert result.network.average_hops >= clean.network.average_hops

    def test_channel_loss_skipped_on_pure_wire_mesh(self, case, platform, clean):
        plan = preset_plan("channel_loss", clean.total_time_s, 16)
        result = run_plan(case, platform, plan)
        assert result.faults.events_applied == []
        assert result.faults.events_skipped == 1
        # A skipped event leaves the run's numbers untouched.
        assert result.total_time_s == pytest.approx(clean.total_time_s)

    def test_late_plan_never_fires(self, case, platform, clean):
        plan = FaultPlan(
            events=(
                FaultSpec(
                    FaultKind.CORE_FAILURE, clean.total_time_s * 10, (3,)
                ),
            )
        )
        result = run_plan(case, platform, plan)
        # The failure lies beyond the horizon: nothing applied, but the
        # run still reports an (empty) impact record.
        assert result.faults is not None
        assert result.faults.events_applied == []
        assert result.total_time_s == pytest.approx(clean.total_time_s)


class TestStealingPolicyReaction:
    """After a straggler's boundary the simulator re-derives the Eq. (3)
    caps on the island clocks divided by the slowdowns (Sec. 4.3); a
    policy without caps is kept as it is."""

    SLOW = FaultPlan(
        events=(FaultSpec(FaultKind.CORE_SLOWDOWN, 0.0, (3,), 2.0),)
    )

    def _run(self, case, platform, policy):
        locality, trace = case
        simulator = SystemSimulator(
            platform,
            locality=locality,
            stealing_policy=policy,
            params=SimulationParams(fault_plan=self.SLOW),
        )
        simulator.run(trace)
        return simulator

    def test_policy_rebalanced_against_degraded_freqs(self, case, platform):
        nominal = np.array(platform.effective_worker_frequencies())
        base_policy = CappedStealingPolicy(nominal.tolist())
        simulator = self._run(case, platform, base_policy)
        rebalanced = simulator.policy
        assert isinstance(rebalanced, CappedStealingPolicy)
        assert rebalanced is not base_policy
        slowed = nominal / simulator.faults.slowdown
        assert rebalanced.core_frequencies_hz == slowed.tolist()
        assert rebalanced.core_frequencies_hz[3] == nominal[3] / 2.0
        assert rebalanced.fmax_hz == nominal.max()

    @pytest.mark.parametrize(
        "policy", [DefaultStealingPolicy(), None], ids=["default", "none"]
    )
    def test_uncapped_policy_is_kept(self, case, platform, policy):
        assert self._run(case, platform, policy).policy is policy
