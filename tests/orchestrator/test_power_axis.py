"""The orchestrator's power-cap axis: spec carrying, cache keys, grids."""

from repro.core.experiment import VFI2_WINOC
from repro.orchestrator.cache import StudyCache
from repro.orchestrator.executor import run_campaign
from repro.orchestrator.spec import CACHE_SCHEMA_VERSION, StudySpec, expand_grid
from repro.power import PowerCapSpec

APP = "histogram"
KWARGS = dict(scale=0.05, seed=9, num_workers=16)


class TestSpecCarrying:
    def test_schema_bumped_for_the_power_axis(self):
        assert CACHE_SCHEMA_VERSION >= 4

    def test_default_cap_collapses_to_none(self):
        assert StudySpec(APP, **KWARGS).power_cap is None
        assert StudySpec(APP, power_cap=PowerCapSpec(), **KWARGS).power_cap is None
        assert StudySpec(APP, power_cap=PowerCapSpec(), **KWARGS) == StudySpec(
            APP, **KWARGS
        )

    def test_bare_watts_and_spec_round_trip(self):
        spec = StudySpec(APP, power_cap=96.0, **KWARGS)
        cap = PowerCapSpec(chip_cap_w=96.0)
        assert spec.power_cap == cap.to_json()
        assert spec.cap() == cap
        assert spec == StudySpec(APP, power_cap=cap, **KWARGS)
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_cap_splits_the_cache_key(self):
        plain = StudySpec(APP, **KWARGS)
        capped = StudySpec(APP, power_cap=96.0, **KWARGS)
        assert plain.cache_key() != capped.cache_key()

    def test_label_names_the_cap(self):
        spec = StudySpec(APP, power_cap=96.0, **KWARGS)
        assert "cap=96W" in spec.label
        assert "cap=" not in StudySpec(APP, **KWARGS).label

    def test_run_kwargs_decodes_the_spec(self):
        # run_app_study's power_cap keyword builds this spec; the
        # pipeline runs the cap the spec decodes.
        capped = StudySpec(APP, power_cap=64.0, **KWARGS)
        assert capped.cap() == PowerCapSpec(chip_cap_w=64.0)
        assert StudySpec(APP, **KWARGS).cap() is None


class TestGrid:
    def test_power_axis_expands_and_dedups(self):
        specs = expand_grid(
            [APP],
            scales=[0.05],
            seeds=[9],
            num_workers=[16],
            power_caps=[None, PowerCapSpec(), 96.0],
        )
        # None and the unbounded spec collapse to one uncapped unit.
        assert len(specs) == 2
        assert specs[0].power_cap is None
        assert specs[1].cap() == PowerCapSpec(chip_cap_w=96.0)

    def test_cap_axis_composes_with_the_tech_axis(self):
        from repro.tech import TechSpec

        specs = expand_grid(
            [APP], scales=[0.05], seeds=[9], num_workers=[16],
            tech=[None, TechSpec(node="45nm")],
            power_caps=[None, 40.0],
        )
        assert len(specs) == 4
        pairs = {(spec.tech is None, spec.power_cap is None) for spec in specs}
        assert len(pairs) == 4


class TestCampaign:
    def test_capped_units_cache_and_replay(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        specs = expand_grid(
            [APP], scales=[0.05], seeds=[9], num_workers=[16],
            power_caps=[None, 16.0],
        )
        first = run_campaign(specs, cache=cache)
        first.raise_failures()
        assert first.manifest.num_computed == 2

        again = run_campaign(specs, cache=cache)
        again.raise_failures()
        assert again.manifest.num_cached == 2

        plain = again.study(specs[0])
        capped = again.study(specs[1])
        # The cached capped study still carries its enforcement record.
        impact = capped.result(VFI2_WINOC).power
        assert impact is not None and impact.cap_w == 16.0
        assert plain.result(VFI2_WINOC).power is None
        assert (
            capped.result(VFI2_WINOC).total_time_s
            >= plain.result(VFI2_WINOC).total_time_s
        )
