"""The one-pass energy fold equals the per-call loop, phase by phase.

``SystemSimulator._fold_phase_energy`` folds a committed phase's miss
and key-value transfer energy into the four ``NocEnergyModel`` counters
with one ordered accumulate per counter.  ``tests/sim/energy_oracle.py``
keeps the per-call loop it replaced.  Each run below is simulated twice,
once with each, and after every phase the four counters (value *and*
type) and ``_committed`` must be equal -- exactly, no tolerance -- as
must the runs' serialized results and, under a recording tracer, every
traced counter.  Runs cover 16, 64 and 256 cores (the last on the
blocked float32 tables), clean, under the ``mixed`` fault preset and
under a chip power cap.
"""

import json

import numpy as np
import pytest

from repro import build_nvfi_mesh, create_app, simulate
from repro.core.experiment import run_app_study
from repro.core.platforms import die_for
from repro.core.serialization import study_to_dict
from repro.faults import preset_plan
from repro.power.frontier import chip_peak_power_w
from repro.sim.config import SimulationParams
from repro.sim.system import SystemSimulator
from repro.telemetry import RecordingTracer, use_tracer

from tests.sim import energy_oracle

#: A dataset seed on which the ``mixed`` plan applies to pca at 16 and
#: 64 cores (a ``FAULT_SEED_POOL`` seed of ``bench/workloads.py``).
FAULT_SEED = 7


def horizon_s(app, seed, num_workers):
    instance = create_app(app, scale=0.05, seed=seed)
    trace = instance.run(num_workers=num_workers)
    return simulate(
        build_nvfi_mesh(die_for(num_workers)), trace,
        locality=instance.profile.l2_locality,
    ).total_time_s


def study(app, num_workers, faulted=False, capped=False):
    def run():
        kwargs = {}
        if faulted:
            kwargs["fault_plan"] = preset_plan(
                "mixed", horizon_s(app, FAULT_SEED, num_workers), num_workers
            )
        if capped:
            kwargs["power_cap"] = 0.6 * chip_peak_power_w(num_workers)
        result = run_app_study(
            app, scale=0.05, seed=FAULT_SEED, num_workers=num_workers,
            use_cache=False, **kwargs,
        )
        return json.dumps(study_to_dict(result), sort_keys=True)
    return run


def mesh_run(app, num_workers, capped=False):
    def run():
        instance = create_app(app, scale=0.05, seed=7)
        trace = instance.run(num_workers=num_workers)
        cap = 0.6 * chip_peak_power_w(num_workers) if capped else None
        result = simulate(
            build_nvfi_mesh(die_for(num_workers)), trace,
            locality=instance.profile.l2_locality,
            params=SimulationParams(power_cap=cap),
        )
        return (result.energy, result.network, result.total_time_s,
                result.committed_instructions.tolist())
    return run


RUNS = {
    "16-clean": study("kmeans", 16),
    "16-faulted": study("pca", 16, faulted=True),
    "16-capped": study("kmeans", 16, capped=True),
    "64-clean": study("histogram", 64),
    "64-faulted-capped": study("pca", 64, faulted=True, capped=True),
    "256-clean": mesh_run("matrix_multiply", 256),
    "256-capped": mesh_run("matrix_multiply", 256, capped=True),
}


def logged(monkeypatch, fold, run):
    """*run*'s outcome with *fold* as the simulator's energy fold, and
    the counters and committed work after every phase."""
    log = []

    def fold_and_log(self, *args, **kwargs):
        fold(self, *args, **kwargs)
        energy = self.memory.pairwise.model.energy
        counters = (
            energy.dynamic_joules, energy.bits_moved,
            energy.bit_hops, energy.wireless_bits,
        )
        log.append((
            [(type(value), value) for value in counters],
            self._committed.copy(),
        ))

    with monkeypatch.context() as patch:
        patch.setattr(SystemSimulator, "_fold_phase_energy", fold_and_log)
        outcome = run()
    return outcome, log


def assert_same_logs(got, want):
    assert len(got) == len(want) > 0
    for (counters, committed), (expected, expected_committed) in zip(got, want):
        assert counters == expected
        assert np.array_equal(committed, expected_committed)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_phase_folds_like_the_per_call_loop(monkeypatch, name):
    fold = SystemSimulator._fold_phase_energy
    outcome, log = logged(monkeypatch, fold, RUNS[name])
    expected, oracle_log = logged(
        monkeypatch, energy_oracle.fold_phase_energy, RUNS[name]
    )
    assert outcome == expected
    assert_same_logs(log, oracle_log)
    bulk_phases = [entry for entry in log if entry[0][2][1] > 0]
    assert bulk_phases  # the runs move bits


@pytest.mark.parametrize("name", ["16-clean", "16-faulted"])
def test_traced_flit_counters_follow_in_order(monkeypatch, name):
    fold = SystemSimulator._fold_phase_energy
    with use_tracer(RecordingTracer()) as tracer:
        _, log = logged(monkeypatch, fold, RUNS[name])
    with use_tracer(RecordingTracer()) as oracle:
        _, oracle_log = logged(
            monkeypatch, energy_oracle.fold_phase_energy, RUNS[name]
        )
    assert_same_logs(log, oracle_log)
    assert tracer.counters == oracle.counters
    assert tracer.counter_total("noc.link_flits") > 0
    assert tracer.counter_total("noc.flits.wireless") > 0
