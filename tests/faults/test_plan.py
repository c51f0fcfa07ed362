"""FaultSpec/FaultPlan: validation, canonical ordering, serialization,
seeded sampling, and the preset scenarios."""

import json

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec, preset_plan
from repro.faults.scenarios import SCENARIOS


def spec(kind=FaultKind.CORE_FAILURE, time_s=1.0, target=(0,), magnitude=1.0):
    return FaultSpec(kind, time_s, target, magnitude)


class TestFaultSpec:
    def test_roundtrip(self):
        original = spec(FaultKind.CORE_SLOWDOWN, 2.5, (3,), 1.75)
        assert FaultSpec.from_dict(original.to_dict()) == original

    def test_target_coercion(self):
        assert spec(target=[4]).target == (4,)
        assert spec(FaultKind.LINK_FAILURE, 1.0, [2, 5]).target == (2, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(time_s=-0.1),
            dict(target=()),
            dict(target=(0, 1)),  # core failure is unary
            dict(target=(-1,)),
            dict(kind=FaultKind.LINK_FAILURE, target=(2,)),
            dict(kind=FaultKind.LINK_FAILURE, target=(3, 3)),  # self-link
            dict(kind=FaultKind.CORE_SLOWDOWN, magnitude=1.0),  # must be > 1
            dict(kind=FaultKind.ISLAND_THROTTLE, magnitude=0.0),
            dict(kind=FaultKind.ISLAND_THROTTLE, magnitude=1.5),  # int steps
        ],
    )
    def test_rejects_invalid(self, kwargs):
        base = dict(
            kind=FaultKind.CORE_FAILURE, time_s=1.0, target=(0,), magnitude=1.0
        )
        if kwargs.get("kind") is FaultKind.CORE_SLOWDOWN:
            base["magnitude"] = 2.0
        base.update(kwargs)
        with pytest.raises(ValueError):
            FaultSpec(**base)


class TestFaultPlan:
    def test_events_sorted_canonically(self):
        late = spec(time_s=5.0)
        early = spec(time_s=1.0, target=(2,))
        plan = FaultPlan(events=(late, early))
        assert plan.events == (early, late)

    def test_len_and_bool(self):
        assert len(FaultPlan()) == 0
        assert not FaultPlan()
        assert FaultPlan(events=(spec(),))

    def test_json_roundtrip_is_canonical(self):
        plan = FaultPlan(
            events=(spec(time_s=3.0), spec(time_s=1.0, target=(7,))),
            seed=42,
            name="case",
        )
        text = plan.to_json()
        again = FaultPlan.from_json(text)
        assert again == plan
        assert again.to_json() == text
        # Canonical form: sorted keys, no whitespace.
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    def test_seed_omitted_when_none(self):
        assert "seed" not in FaultPlan(events=(spec(),)).to_dict()


class TestPresetScenarios:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_builds(self, scenario):
        plan = preset_plan(scenario, horizon_s=10.0, num_workers=16)
        assert len(plan) >= 1
        assert plan.name == scenario
        assert all(0.0 < e.time_s < 10.0 for e in plan.events)
        # Deterministic: same inputs, same canonical JSON.
        assert plan.to_json() == preset_plan(
            scenario, horizon_s=10.0, num_workers=16
        ).to_json()

    def test_mixed_covers_every_kind(self):
        plan = preset_plan("mixed", horizon_s=10.0, num_workers=16)
        assert {e.kind for e in plan.events} == set(FaultKind)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            preset_plan("nope", 10.0, 16)
        with pytest.raises(ValueError):
            preset_plan("mixed", 0.0, 16)
        with pytest.raises(ValueError):
            preset_plan("mixed", 10.0, 2)
