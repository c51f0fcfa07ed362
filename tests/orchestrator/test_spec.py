"""StudySpec canonicalization, hashing and grid expansion."""

import subprocess
import sys

import pytest

from repro.orchestrator import CACHE_SCHEMA_VERSION, StudySpec, expand_grid


class TestCanonicalization:
    def test_alias_resolves(self):
        assert StudySpec(app="hist") == StudySpec(app="histogram")
        assert StudySpec(app="HIST").app == "histogram"

    def test_numeric_fields_normalized(self):
        spec = StudySpec(app="wordcount", scale=1, seed=9.0, num_workers=16.0)
        assert spec.scale == 1.0 and isinstance(spec.scale, float)
        assert spec.seed == 9 and isinstance(spec.seed, int)
        assert spec.num_workers == 16 and isinstance(spec.num_workers, int)

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            StudySpec(app="sorting")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            StudySpec(app="histogram", scale=0.0)
        with pytest.raises(ValueError):
            StudySpec(app="histogram", scale=1.5)

    def test_untileable_workers_rejected(self):
        # Rectangular worker counts (20 = 5x4, 128 = 16x8) are accepted
        # since the DieGeometry refactor; 18 = 6x3 has no rectangular
        # 4-island tiling and must still be rejected up front.
        with pytest.raises(ValueError):
            StudySpec(app="histogram", num_workers=18)
        assert StudySpec(app="histogram", num_workers=20).num_workers == 20
        assert StudySpec(app="histogram", num_workers=128).num_workers == 128

    def test_bad_methodology_rejected(self):
        with pytest.raises(ValueError):
            StudySpec(app="histogram", winoc_methodology="telepathy")

    def test_round_trip_dict(self):
        spec = StudySpec(app="kmeans", scale=0.5, seed=3, num_workers=36)
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_label_mentions_identity(self):
        label = StudySpec(app="pca", scale=0.3, seed=11, num_workers=16).label
        assert "pca" in label and "seed=11" in label and "workers=16" in label


class TestCacheKey:
    def test_deterministic_within_process(self):
        a = StudySpec(app="histogram", scale=0.3, seed=9)
        b = StudySpec(app="hist", scale=0.3, seed=9)
        assert a.cache_key() == b.cache_key()

    def test_any_field_change_changes_key(self):
        base = StudySpec(app="histogram", scale=0.3, seed=9, num_workers=16)
        variants = [
            StudySpec(app="kmeans", scale=0.3, seed=9, num_workers=16),
            StudySpec(app="histogram", scale=0.31, seed=9, num_workers=16),
            StudySpec(app="histogram", scale=0.3, seed=10, num_workers=16),
            StudySpec(app="histogram", scale=0.3, seed=9, num_workers=64),
            StudySpec(
                app="histogram", scale=0.3, seed=9, num_workers=16,
                winoc_methodology="min_hop",
            ),
            StudySpec(
                app="histogram", scale=0.3, seed=9, num_workers=16,
                include_vfi1=False,
            ),
        ]
        keys = {spec.cache_key() for spec in variants}
        assert base.cache_key() not in keys
        assert len(keys) == len(variants)

    def test_schema_version_changes_key(self):
        spec = StudySpec(app="histogram")
        assert spec.cache_key(CACHE_SCHEMA_VERSION) != spec.cache_key(
            CACHE_SCHEMA_VERSION + 1
        )

    def test_deterministic_across_processes(self):
        spec = StudySpec(app="histogram", scale=0.3, seed=9, num_workers=16)
        script = (
            "from repro.orchestrator import StudySpec;"
            "print(StudySpec(app='hist', scale=0.3, seed=9,"
            " num_workers=16).cache_key())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == spec.cache_key()


class TestExpandGrid:
    def test_app_major_order(self):
        specs = expand_grid(apps=["histogram", "kmeans"], seeds=[1, 2])
        assert [(s.app, s.seed) for s in specs] == [
            ("histogram", 1), ("histogram", 2),
            ("kmeans", 1), ("kmeans", 2),
        ]

    def test_aliases_deduplicate(self):
        specs = expand_grid(apps=["hist", "histogram"], seeds=[1])
        assert len(specs) == 1

    def test_full_product(self):
        specs = expand_grid(
            apps=["histogram"],
            scales=[0.3, 0.5],
            seeds=[1, 2],
            num_workers=[16, 64],
        )
        assert len(specs) == 8
        assert len(set(specs)) == 8

    def test_empty_apps_rejected(self):
        with pytest.raises(ValueError):
            expand_grid(apps=[])
