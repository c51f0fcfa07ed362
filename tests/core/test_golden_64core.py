"""Bit-for-bit regression of the 64-core paper platform.

``tests/data/golden_64core.json`` was captured before the parametric
die-geometry refactor (``tests/data/capture_golden.py``); these tests
pin the full study pipeline -- nVFI characterization, design flow,
VFI-1/VFI-2 mesh and WiNoC simulation, faults, and telemetry -- so the
geometry/blocked-dense/dispatch changes cannot drift the paper numbers.
Comparisons use ``rel=1e-12``: the 64-core default path must stay on
the exact legacy computation, not merely close to it.
"""

import json
import os

import numpy as np
import pytest

from repro.core.experiment import run_app_study
from repro.faults import preset_plan
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.power import PowerCapSpec
from repro.power.frontier import chip_peak_power_w
from repro.telemetry import RecordingTracer, use_tracer
from repro.telemetry.summary import island_summary, phase_summary

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_64core.json"
)

APP = "histogram"
SCALE = 0.05
SEED = 9
WORKERS = 64


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _fault_plan():
    return FaultPlan(
        events=(
            FaultSpec(FaultKind.CORE_FAILURE, 0.002, (13,)),
            FaultSpec(FaultKind.ISLAND_THROTTLE, 0.001, (2,), magnitude=1),
        ),
        name="golden",
    )


def _fingerprint(result):
    return {
        "total_time_s": result.total_time_s,
        "total_energy_j": result.total_energy_j,
        "core_dynamic_j": result.energy.core_dynamic_j,
        "core_static_j": result.energy.core_static_j,
        "noc_dynamic_j": result.energy.noc_dynamic_j,
        "noc_static_j": result.energy.noc_static_j,
        "busy_sum_s": float(np.sum(result.busy_s)),
        "committed_sum": float(np.sum(result.committed_instructions)),
        "bits_moved": result.network.bits_moved,
        "average_hops": result.network.average_hops,
        "wireless_fraction": result.network.wireless_fraction,
        "num_phases": len(result.phases),
    }


def _assert_matches(actual, expected, context):
    assert set(actual) == set(expected), context
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (
                f"{context}: {key} drifted: {got!r} != {want!r}"
            )
        else:
            assert got == want, f"{context}: {key} drifted"


@pytest.fixture(scope="module")
def study_with_telemetry():
    tracer = RecordingTracer()
    with use_tracer(tracer):
        study = run_app_study(
            APP, scale=SCALE, seed=SEED, num_workers=WORKERS, use_cache=False
        )
    return study, tracer


def test_fault_free_configs_bit_for_bit(golden, study_with_telemetry):
    study, _ = study_with_telemetry
    assert set(study.results) == set(golden["configs"])
    for name, expected in golden["configs"].items():
        _assert_matches(_fingerprint(study.results[name]), expected, name)


def test_telemetry_summaries_stable(golden, study_with_telemetry):
    study, tracer = study_with_telemetry
    vfi2 = "vfi2-mesh"
    phases = phase_summary(tracer, pid=vfi2)[vfi2]
    _assert_matches(phases, golden["telemetry"]["phase_summary"], "phases")
    islands = island_summary(tracer, vfi2, study.design.worker_clusters)
    expected = golden["telemetry"]["island_summary"]
    assert len(islands) == len(expected)
    for summary, want in zip(islands, expected):
        _assert_matches(summary, want, f"island {want['island']}")


def test_explicit_default_tech_bit_for_bit(golden):
    # The tech axis must be invisible at its default: running with an
    # explicit 65 nm homogeneous TechSpec reproduces the golden numbers
    # exactly (the spec collapses to the legacy code path, not merely an
    # equivalent one).
    from repro.tech import TechSpec

    study = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS,
        use_cache=False, tech=TechSpec(),
    )
    assert set(study.results) == set(golden["configs"])
    for name, expected in golden["configs"].items():
        _assert_matches(_fingerprint(study.results[name]), expected, name)


def test_explicit_default_cap_bit_for_bit(golden):
    # The power axis must be invisible at its default: an explicit
    # unbounded PowerCapSpec collapses to the uncapped legacy code path
    # and reproduces the golden numbers exactly.
    from repro.power import PowerCapSpec

    study = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS,
        use_cache=False, power_cap=PowerCapSpec(),
    )
    assert set(study.results) == set(golden["configs"])
    for name, expected in golden["configs"].items():
        result = study.results[name]
        assert result.power is None
        _assert_matches(_fingerprint(result), expected, name)


def test_faulted_configs_bit_for_bit(golden):
    faulted = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS,
        use_cache=False, fault_plan=_fault_plan(),
    )
    for name, expected in golden["faulted"].items():
        _assert_matches(_fingerprint(faulted.results[name]), expected, name)
    impact = faulted.result("vfi2_mesh").faults
    assert impact is not None
    _assert_matches(impact.to_dict(), golden["fault_impact"], "fault_impact")


def test_composed_fault_and_cap_bit_for_bit(golden, study_with_telemetry):
    # A link failure degrades the fabric while the governor's capped
    # views step clocks on top of the degraded view: every table a
    # re-clocked or re-wired platform derives must match the capture.
    study, _ = study_with_telemetry
    expected = golden["composed"]
    horizon_s = study.result("nvfi_mesh").total_time_s
    assert horizon_s == expected["horizon_s"]
    composed = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=WORKERS, use_cache=False,
        fault_plan=preset_plan("mixed", horizon_s, WORKERS),
        power_cap=PowerCapSpec(chip_cap_w=0.6 * chip_peak_power_w(WORKERS)),
    )
    assert set(composed.results) == set(expected["configs"])
    for name, want in expected["configs"].items():
        _assert_matches(_fingerprint(composed.results[name]), want, name)
    vfi2 = composed.result("vfi2_mesh")
    _assert_matches(vfi2.faults.to_dict(), expected["fault_impact"], "fault_impact")
    _assert_matches(vfi2.power.to_dict(), expected["cap_impact"], "cap_impact")
