"""Cap-sweep helpers: peak estimates, default ladders, row extraction."""

import pytest

from repro.energy.core_power import CorePowerModel, CorePowerParams
from repro.power import (
    DEFAULT_CAP_FRACTIONS,
    PowerCapSpec,
    cap_sweep_specs,
    chip_peak_power_w,
    default_caps_w,
    frontier_rows,
)
from repro.core.geometry import DieGeometry
from repro.tech import TechSpec, budget
from repro.tech.cores import resolve_mix
from repro.tech.nodes import NODES, get_node


class TestChipPeak:
    def test_default_platform_prices_every_core_at_nominal(self):
        model = CorePowerModel(CorePowerParams())
        nominal = model.params.nominal
        per_core = model.dynamic_power_w(nominal, 1.0) + model.leakage_power_w(
            nominal
        )
        assert chip_peak_power_w(64) == pytest.approx(64 * per_core)
        assert chip_peak_power_w(16) == pytest.approx(16 * per_core)

    def test_estimate_is_the_tech_budget_sum(self):
        # The cap sweeps' estimate and the tech budget's chip peak are
        # one per-island sum, bit for bit, on every technology grid point.
        for variant, nodes in NODES.items():
            for nm in nodes:
                node = get_node(nm, variant)
                for cores in ("ooo", "big_little"):
                    tech = TechSpec(node=f"{nm}nm", variant=variant, cores=cores)
                    for workers in (16, 64, 256):
                        mix = resolve_mix(
                            cores, DieGeometry.for_cores(workers).num_islands
                        )
                        assert chip_peak_power_w(workers, tech=tech) == (
                            budget.chip_peak_power_w(node, mix, workers)
                        )

    def test_smaller_node_peaks_lower(self):
        assert chip_peak_power_w(64, tech=TechSpec(node="32nm")) < (
            chip_peak_power_w(64)
        )

    def test_default_caps_are_fractions_of_the_peak(self):
        peak = chip_peak_power_w(64)
        caps = default_caps_w(64)
        assert len(caps) == len(DEFAULT_CAP_FRACTIONS)
        for cap, fraction in zip(caps, DEFAULT_CAP_FRACTIONS):
            assert cap == pytest.approx(peak * fraction, abs=0.05)
        # Tightest last, and the sweep spans at least 4 levels.
        assert list(caps) == sorted(caps, reverse=True)
        assert len(caps) >= 4


class TestSweepSpecs:
    def test_uncapped_baseline_leads_the_sweep(self):
        specs = cap_sweep_specs(
            "histogram", (40.0, 20.0), scale=0.05, seed=9, num_workers=16
        )
        assert len(specs) == 3
        assert specs[0].power_cap is None
        assert specs[1].cap() == PowerCapSpec(chip_cap_w=40.0)
        assert specs[2].cap() == PowerCapSpec(chip_cap_w=20.0)
        # The caps split the cache while every other axis is shared.
        assert len({spec.cache_key() for spec in specs}) == 3
        assert {spec.app for spec in specs} == {"histogram"}


class _Result:
    def __init__(self, time_s, energy_j, power=None):
        self.total_time_s = time_s
        self.total_energy_j = energy_j
        self.edp = energy_j * time_s
        self.power = power


class _Study:
    def __init__(self, result):
        self._result = result

    def result(self, config):
        return self._result


class TestFrontierRows:
    def test_rows_order_loosest_first_and_carry_accounting(self):
        from repro.power import CapImpact

        impact = CapImpact(
            cap_w=20.0, boundaries_polled=3, throttle_events=[{}, {}],
            throttled_islands=[1, 2], throttled_s=4.0, peak_power_w=19.0,
        )
        studies = {
            20.0: _Study(_Result(12.0, 90.0, impact)),
            None: _Study(_Result(10.0, 100.0)),
            40.0: _Study(_Result(11.0, 95.0, CapImpact(cap_w=40.0))),
        }
        rows = frontier_rows(studies)
        assert [row["cap_w"] for row in rows] == [None, 40.0, 20.0]
        uncapped = rows[0]
        assert uncapped["throttle_events"] == 0
        assert uncapped["peak_power_w"] is None
        assert uncapped["throughput_per_s"] == pytest.approx(0.1)
        tight = rows[-1]
        assert tight["throttle_events"] == 2
        assert tight["throttled_islands"] == [1, 2]
        assert tight["peak_power_w"] == 19.0
