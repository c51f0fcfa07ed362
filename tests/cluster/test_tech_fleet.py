"""Tech-aware fleets: per-chip nodes, hetero preset, job resolution."""

import pytest

from repro.cluster.fleet import ChipSpec, Fleet, fleet_for, hetero_fleet
from repro.cluster.jobs import ClusterJob
from repro.tech import TechSpec


class TestChipSpecTech:
    def test_default_chip_has_no_tech(self):
        chip = ChipSpec(chip_id=0)
        assert chip.tech is None
        assert chip.tech_spec() == TechSpec()
        assert chip.node_nm == 65
        assert chip.core_class == "ooo"
        assert "tech=" not in chip.label

    def test_default_techspec_collapses_to_none(self):
        assert ChipSpec(chip_id=0, tech=TechSpec()) == ChipSpec(chip_id=0)

    def test_tech_round_trips_and_labels(self):
        tech = TechSpec(node="32nm", cores="big_little")
        chip = ChipSpec(chip_id=1, num_workers=64, tech=tech)
        assert chip.tech_spec() == tech
        assert "tech=32nm-itrs/big_little" in chip.label
        assert ChipSpec.from_dict(chip.to_dict()) == chip

    def test_tech_splits_the_class_key(self):
        plain = ChipSpec(chip_id=0)
        shrunk = ChipSpec(chip_id=1, tech=TechSpec(node="45nm"))
        assert plain.class_key != shrunk.class_key


class TestFleets:
    def test_fleet_for_applies_one_tech_everywhere(self):
        tech = TechSpec(node="45nm")
        fleet = fleet_for(3, tech=tech)
        assert all(chip.tech_spec() == tech for chip in fleet)

    def test_hetero_fleet_cycles_the_four_classes(self):
        fleet = hetero_fleet(6)
        chips = list(fleet)
        assert [c.num_workers for c in chips] == [16, 64, 16, 64, 16, 64]
        assert chips[0].tech is None
        assert chips[1].tech_spec() == TechSpec(node="45nm")
        assert chips[2].tech_spec() == TechSpec(node="32nm", cores="big_little")
        assert chips[3].tech_spec() == TechSpec(node="22nm", cores="io")
        # Cycle wraps: chip 4 repeats chip 0's class.
        assert chips[4].class_key == chips[0].class_key

    def test_hetero_fleet_round_trips_through_json(self):
        fleet = hetero_fleet(4)
        assert Fleet.from_dict(fleet.to_dict()) == fleet

    def test_hetero_fleet_validates_size(self):
        with pytest.raises(ValueError, match="num_chips"):
            hetero_fleet(0)


class TestJobResolution:
    def test_spec_for_carries_the_chip_tech(self):
        job = ClusterJob(job_id=0, app="histogram", arrival_s=0.0)
        tech = TechSpec(node="32nm", cores="big_little")
        chip = ChipSpec(chip_id=2, tech=tech)
        spec = job.spec_for(chip)
        assert spec.tech_spec() == tech
        assert job.spec_for(ChipSpec(chip_id=0)).tech is None

    def test_same_class_chips_collapse_to_one_spec(self):
        job = ClusterJob(job_id=0, app="histogram", arrival_s=0.0)
        a = ChipSpec(chip_id=0, tech=TechSpec(node="45nm"))
        b = ChipSpec(chip_id=1, tech=TechSpec(node="45nm"))
        assert job.spec_for(a) == job.spec_for(b)
