"""The orchestrator's tech axis: spec carrying, cache keys, grids."""

import pytest

from repro.core.experiment import VFI2_WINOC
from repro.orchestrator.cache import StudyCache
from repro.orchestrator.executor import run_campaign
from repro.orchestrator.spec import CACHE_SCHEMA_VERSION, StudySpec, expand_grid
from repro.tech import TechSpec

APP = "histogram"
KWARGS = dict(scale=0.05, seed=9, num_workers=16)


class TestSpecCarrying:
    def test_schema_bumped_for_the_tech_axis(self):
        assert CACHE_SCHEMA_VERSION >= 3

    def test_default_tech_collapses_to_none(self):
        assert StudySpec(APP, **KWARGS).tech is None
        assert StudySpec(APP, tech=TechSpec(), **KWARGS).tech is None
        assert StudySpec(APP, tech=TechSpec(), **KWARGS) == StudySpec(
            APP, **KWARGS
        )

    def test_non_default_tech_round_trips(self):
        tech = TechSpec(node="45nm", cores="big_little")
        spec = StudySpec(APP, tech=tech, **KWARGS)
        assert spec.tech == tech.to_json()
        assert spec.tech_spec() == tech
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_tech_splits_the_cache_key(self):
        plain = StudySpec(APP, **KWARGS)
        shrunk = StudySpec(APP, tech=TechSpec(node="45nm"), **KWARGS)
        assert plain.cache_key() != shrunk.cache_key()

    def test_label_names_the_tech(self):
        spec = StudySpec(APP, tech=TechSpec(node="32nm"), **KWARGS)
        assert "tech=32nm-itrs/ooo" in spec.label
        assert "tech=" not in StudySpec(APP, **KWARGS).label

    def test_run_kwargs_decodes_the_spec(self):
        # run_app_study's tech keyword builds this spec; the pipeline
        # runs the technology the spec decodes (the paper default for
        # an unset axis).
        tech = TechSpec(node="22nm", cores="io")
        assert StudySpec(APP, tech=tech, **KWARGS).tech_spec() == tech
        assert StudySpec(APP, **KWARGS).tech_spec() == TechSpec()


class TestGrid:
    def test_tech_axis_expands_and_dedups(self):
        specs = expand_grid(
            [APP],
            scales=[0.05],
            seeds=[9],
            num_workers=[16],
            tech=[None, TechSpec(), TechSpec(node="45nm")],
        )
        # None and the default TechSpec collapse to one unit.
        assert len(specs) == 2
        assert specs[0].tech is None
        assert specs[1].tech_spec() == TechSpec(node="45nm")


class TestCampaign:
    def test_tech_units_cache_and_replay(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        specs = expand_grid(
            [APP], scales=[0.05], seeds=[9], num_workers=[16],
            tech=[None, TechSpec(node="45nm")],
        )
        first = run_campaign(specs, cache=cache)
        first.raise_failures()
        assert first.manifest.num_computed == 2

        again = run_campaign(specs, cache=cache)
        again.raise_failures()
        assert again.manifest.num_cached == 2

        plain = again.study(specs[0])
        shrunk = again.study(specs[1])
        assert (
            shrunk.result(VFI2_WINOC).total_time_s
            < plain.result(VFI2_WINOC).total_time_s
        )
