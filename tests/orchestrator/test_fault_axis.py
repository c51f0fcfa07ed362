"""The orchestrator's resilience sweep axis: fault plans on StudySpec,
grid expansion, cache keying, and campaign round trips."""

import pytest

from repro.core.experiment import clear_study_cache
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.orchestrator.executor import run_campaign
from repro.orchestrator.spec import (
    CACHE_SCHEMA_VERSION,
    StudySpec,
    expand_grid,
)


@pytest.fixture()
def plan():
    return FaultPlan(
        events=(
            FaultSpec(FaultKind.CORE_FAILURE, 5.0, (3,)),
            FaultSpec(FaultKind.ISLAND_THROTTLE, 2.0, (1,), 1.0),
        ),
        name="axis",
    )


class TestSpecPlanField:
    def test_schema_version_bumped_for_fault_axis(self):
        assert CACHE_SCHEMA_VERSION >= 2

    def test_plan_object_and_json_canonicalize_identically(self, plan):
        by_object = StudySpec("histogram", fault_plan=plan)
        by_json = StudySpec("histogram", fault_plan=plan.to_json())
        assert by_object == by_json
        assert hash(by_object) == hash(by_json)
        assert by_object.cache_key() == by_json.cache_key()

    def test_non_canonical_json_is_recanonicalized(self, plan):
        import json

        loose = json.dumps(json.loads(plan.to_json()), indent=2)
        assert StudySpec("histogram", fault_plan=loose) == StudySpec(
            "histogram", fault_plan=plan
        )

    def test_empty_plan_collapses_to_fault_free(self):
        assert StudySpec("histogram", fault_plan=FaultPlan()) == StudySpec(
            "histogram"
        )

    def test_plan_changes_the_cache_key(self, plan):
        assert (
            StudySpec("histogram", fault_plan=plan).cache_key()
            != StudySpec("histogram").cache_key()
        )

    def test_run_kwargs_decodes_the_plan(self, plan):
        # run_app_study's fault_plan keyword builds this spec; the
        # pipeline runs the plan the spec decodes.
        assert StudySpec("histogram", fault_plan=plan).plan() == plan
        assert StudySpec("histogram").plan() is None

    def test_label_names_the_plan(self, plan):
        assert "faults=axis(2)" in StudySpec("histogram", fault_plan=plan).label
        assert "faults" not in StudySpec("histogram").label

    def test_round_trips_through_dict(self, plan):
        spec = StudySpec("histogram", fault_plan=plan)
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            StudySpec("histogram", fault_plan=42)


class TestGridExpansion:
    def test_fault_axis_cross_product(self, plan):
        specs = expand_grid(
            ["histogram"], seeds=(7, 8), fault_plans=(None, plan)
        )
        assert len(specs) == 4
        assert sum(1 for s in specs if s.fault_plan is not None) == 2

    def test_default_grid_is_fault_free(self):
        for spec in expand_grid(["histogram", "wordcount"]):
            assert spec.fault_plan is None


class TestCampaignRoundTrip:
    def test_faulted_unit_caches_and_restores(self, tmp_path, plan):
        specs = expand_grid(
            ["histogram"], scales=(0.05,), seeds=(9,), num_workers=(16,),
            fault_plans=(None, plan),
        )
        cold = run_campaign(specs, cache=str(tmp_path))
        cold.raise_failures()
        faulted = cold.study(specs[1])

        clear_study_cache()
        warm = run_campaign(specs, cache=str(tmp_path))
        warm.raise_failures()
        assert [r.status for r in warm.manifest.records] == ["cached", "cached"]

        clean_again = warm.study(specs[0])
        faulted_again = warm.study(specs[1])
        assert clean_again.result("nvfi_mesh").faults is None
        restored = faulted_again.result("nvfi_mesh")
        original = faulted.result("nvfi_mesh")
        assert restored.faults is not None
        assert restored.faults.to_dict() == original.faults.to_dict()
        assert restored.total_time_s == original.total_time_s
