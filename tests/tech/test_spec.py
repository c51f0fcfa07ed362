"""TechSpec canonicalization and the default-collapses-to-None rule."""

import pytest

from repro.tech.spec import TechSpec, canonical_tech_json, normalize_tech
from repro.vfi.islands import DVFS_LADDER


class TestCanonicalization:
    def test_default_is_the_paper_configuration(self):
        spec = TechSpec()
        assert spec.node == "65nm"
        assert spec.variant == "itrs"
        assert spec.cores == "ooo"
        assert spec.is_default
        assert spec.label == "65nm-itrs/ooo"

    def test_node_forms_canonicalize(self):
        assert TechSpec(node=45) == TechSpec(node="45nm")
        assert TechSpec(node=" 45NM ") == TechSpec(node="45nm")

    def test_paper_node_collapses_the_variant(self):
        # 65 nm is the identity in both tables; one cache identity only.
        assert TechSpec(node=65, variant="cons") == TechSpec()
        assert TechSpec(node=45, variant="cons") != TechSpec(node=45)

    def test_homogeneous_tuple_collapses_to_the_name(self):
        assert TechSpec(cores=("io", "io", "io")).cores == "io"
        mixed = TechSpec(cores=("ooo", "io"))
        assert mixed.cores == ("ooo", "io")
        assert mixed.label == "65nm-itrs/ooo+io"

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            TechSpec(node="14nm")
        with pytest.raises(ValueError):
            TechSpec(variant="optimistic")
        with pytest.raises(ValueError):
            TechSpec(cores="vliw")
        with pytest.raises(ValueError):
            TechSpec(cores=())


class TestAccessors:
    def test_default_ladder_is_the_paper_ladder(self):
        assert TechSpec().ladder() == DVFS_LADDER

    def test_tech_node_and_mix(self):
        spec = TechSpec(node="32nm", cores="big_little")
        assert spec.tech_node().nm == 32
        assert spec.mix_for(4).types == ("ooo", "ooo", "io", "io")


class TestJson:
    def test_round_trip(self):
        for spec in (
            TechSpec(),
            TechSpec(node="22nm", variant="cons", cores="io"),
            TechSpec(cores=("ooo", "io", "io", "io")),
        ):
            assert TechSpec.from_json(spec.to_json()) == spec

    def test_canonical_json_is_key_sorted_and_compact(self):
        text = TechSpec(node="45nm").to_json()
        assert text == '{"cores":"ooo","node":"45nm","variant":"itrs"}'


class TestCarryingConvention:
    def test_default_collapses_to_none(self):
        assert canonical_tech_json(None) is None
        assert canonical_tech_json(TechSpec()) is None
        assert canonical_tech_json(TechSpec().to_json()) is None
        assert normalize_tech(TechSpec()) == TechSpec()
        assert normalize_tech(None) == TechSpec()

    def test_non_default_round_trips(self):
        spec = TechSpec(node="45nm", cores="big_little")
        text = canonical_tech_json(spec)
        assert TechSpec.from_json(text) == spec
        assert normalize_tech(text) == spec
        # JSON text re-canonicalizes: whitespace never splits a cache.
        loose = '{ "node": "45nm", "variant": "itrs", "cores": "big_little" }'
        assert canonical_tech_json(loose) == text

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="tech must be"):
            canonical_tech_json(65)
