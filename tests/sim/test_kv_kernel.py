"""The barrier-phase pricing kernel against the scalar reference.

``SystemSimulator._kv_durations`` prices every reduce and merge task,
clean or fault-injected.  It must equal the scalar task pricer plus the
scalar per-source pull loop (``tests/sim/kv_oracle.py``) bit for bit, for
every record on every worker -- the home worker a clean phase runs on
and any substitute a faulted one may pick -- and a barrier phase, clean
or faulted, must schedule exactly as the scalar per-record loop did.
"""

import numpy as np
import pytest

from repro.apps import create_app
from repro.core.geometry import DieGeometry
from repro.core.platforms import build_nvfi_mesh
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.spec import FaultInjectionError
from repro.sim import system
from repro.sim.config import SimulationParams
from repro.sim.system import SystemSimulator, _ScheduledTask
from repro.vfi.islands import DVFS_LADDER

from tests.noc import table_oracles
from tests.sim import kv_oracle


def _barrier_records(trace):
    """Every reduce and merge record of the trace's first iteration."""
    iteration = trace.iterations[0]
    records = list(iteration.reduce_phase.tasks)
    for stage in iteration.merge_stages:
        records.extend(stage.tasks)
    return records


def _loaded_simulator(num_cores, params=SimulationParams()):
    """A simulator whose bulk tables carry one relaxation round's load,
    and the first iteration's barrier records."""
    app = create_app("histogram", scale=0.05, seed=9)
    trace = app.run(num_workers=num_cores)
    simulator = SystemSimulator(
        build_nvfi_mesh(DieGeometry.for_cores(num_cores)),
        locality=app.profile.l2_locality,
        params=params,
    )
    reduce_records = trace.iterations[0].reduce_phase.tasks
    plan = simulator._kv_plan(reduce_records)
    durations = simulator._kv_durations(plan, plan.home)
    schedule = [
        _ScheduledTask(record, record.home_worker, 0.0, d)
        for record, d in zip(reduce_records, durations)
    ]
    simulator._register_phase_flows(schedule, float(durations.max()), plan)
    simulator.memory.refresh_latencies()
    return simulator, _barrier_records(trace)


@pytest.fixture(scope="module")
def mesh16():
    return _loaded_simulator(16)


@pytest.fixture(scope="module")
def die128():
    return _loaded_simulator(128)


def _assert_kernel_matches_scalar(simulator, records, workers):
    plan = simulator._kv_plan(records)
    # One-record plans: what the substitution chain prices each step on.
    singles = [simulator._kv_plan([record]) for record in records]
    home = simulator._kv_durations(plan, plan.home)
    for i, record in enumerate(records):
        assert home[i] == kv_oracle.task_time(
            simulator, record, record.home_worker
        ) + kv_oracle.kv_pull_time(simulator, record, record.home_worker)
    for worker in workers:
        batch = simulator._kv_durations(plan, np.full(len(records), worker))
        for i, record in enumerate(records):
            scalar = kv_oracle.task_time(
                simulator, record, worker
            ) + kv_oracle.kv_pull_time(simulator, record, worker)
            single = simulator._kv_durations(singles[i], np.array([worker]))[0]
            assert batch[i] == scalar  # bit-for-bit
            assert single == scalar


class TestKernelMatchesScalar:
    def test_mesh16_every_worker(self, mesh16):
        simulator, records = mesh16
        # The relaxation round put load on the bulk paths: their
        # effective capacity now sits below the raw line rate.
        memory = simulator.memory
        _, capacity = kv_oracle.bulk_matrices(memory)
        assert (capacity < memory.bulk_raw_bottleneck_bps).any()
        _assert_kernel_matches_scalar(simulator, records, range(16))

    def test_die128_float32_tables(self, die128):
        simulator, records = die128
        # Blocked large-die tables store float32: the head term must
        # divide in float32, as the scalar loop does under NEP 50.
        assert simulator.memory.bulk_raw_bottleneck_bps.dtype == np.float32
        _assert_kernel_matches_scalar(simulator, records, range(128))


def _faulted(fail_times):
    """A loaded 16-core simulator whose cores fail at *fail_times*."""
    plan = FaultPlan(
        events=tuple(
            FaultSpec(FaultKind.CORE_FAILURE, t, (worker,))
            for worker, t in sorted(fail_times.items())
        ),
        name="kernel",
    )
    return _loaded_simulator(16, SimulationParams(fault_plan=plan))


def _assert_phase_matches_scalar(simulator, records, start, plan=None):
    """One scheduling of the barrier phase (on *plan*, or a fresh plan)
    against the scalar loop; returns ``(schedule, end, recovery)``."""
    if plan is None:
        plan = simulator._kv_plan(records)
    result = simulator._schedule_parallel(records, start, plan)
    schedule, end, recovery = result
    want_schedule, want_end, want = kv_oracle.schedule_parallel(
        simulator, records, start
    )
    assert end == want_end
    assert [(i.record, i.worker, i.start_s, i.duration_s) for i in schedule] == [
        (i.record, i.worker, i.start_s, i.duration_s) for i in want_schedule
    ]
    if want is None:  # the scalar loop keeps no recovery on clean runs
        assert not recovery.lost and not recovery.substitutions
        return result
    assert recovery.lost == want.lost
    assert recovery.reexecutions == want.reexecutions
    assert recovery.substitutions == want.substitutions
    return result


class TestBarrierPhaseMatchesScalar:
    START = 1.0

    def test_clean_phase(self, mesh16):
        _assert_phase_matches_scalar(*mesh16, self.START)

    def test_dead_and_dying_homes(self):
        start = self.START
        simulator, records = _faulted(
            # dead before the barrier, at it, mid-task (twice in a row on
            # the ring), and long after the phase
            {3: 0.5, 4: start, 7: start + 1e-6, 8: start + 2e-6, 12: 50.0}
        )
        _, _, recovery = _assert_phase_matches_scalar(simulator, records, start)
        assert recovery.substitutions and recovery.reexecutions

    def test_no_survivor_raises_the_same_error(self):
        simulator, records = _faulted({w: 0.5 for w in range(16)})
        plan = simulator._kv_plan(records)
        with pytest.raises(FaultInjectionError) as got:
            simulator._schedule_parallel(records, self.START, plan)
        with pytest.raises(FaultInjectionError) as want:
            kv_oracle.schedule_parallel(simulator, records, self.START)
        assert str(got.value) == str(want.value)

    def test_faulted_tasks_build_their_plans_once_per_phase(self, monkeypatch):
        # Relaxation rounds of one faulted phase: each round loads the
        # network with the last schedule and refreshes the latencies.
        # The one-record plans of the substitution chains, and their
        # pricing views, are built in the first round only; every round
        # still schedules exactly as the scalar loop does under that
        # round's latencies.
        start = self.START
        simulator, records = _faulted(
            {3: 0.5, 4: start, 7: start + 1e-6, 8: start + 2e-6, 12: 50.0}
        )
        builds = {"plans": 0, "pricing": 0}
        kv_plan = SystemSimulator._kv_plan
        pricing_init = system._KvPricing.__init__

        def counted_plan(self, plan_records):
            builds["plans"] += 1
            return kv_plan(self, plan_records)

        def counted_pricing(self, *args):
            builds["pricing"] += 1
            pricing_init(self, *args)

        monkeypatch.setattr(SystemSimulator, "_kv_plan", counted_plan)
        monkeypatch.setattr(system._KvPricing, "__init__", counted_pricing)
        plan = simulator._kv_plan(records)
        per_round, ends = [], []
        for _ in range(4):
            schedule, end, _ = _assert_phase_matches_scalar(
                simulator, records, start, plan
            )
            per_round.append(dict(builds))
            ends.append(end)
            simulator._register_phase_flows(schedule, end - start, plan)
            simulator.memory.refresh_latencies()
        assert len(set(ends)) > 1  # the rounds price under moving loads
        assert per_round[0]["plans"] > 1 and per_round[0]["pricing"] > 1
        assert per_round == [per_round[0]] * len(per_round)


class TestViewsFollowThePlatform:
    """A plan's per-phase views belong to one memory system, network
    and destination set: after a platform switch, pricing and flow
    registration must read the new platform's tables and load its
    network, as a plan built afresh would; and pricing on the home
    workers while registering flows on other, executing ones keeps
    each view in its own slot."""

    def test_pricing_and_flow_views_keep_their_own_slots(self):
        simulator, records = _loaded_simulator(16)
        plan = simulator._kv_plan(records)
        moved = (plan.home + 1) % simulator.platform.num_cores
        on_moved = [
            _ScheduledTask(record, int(worker), 0.0, 1.0)
            for record, worker in zip(records, moved)
        ]
        on_home = [
            _ScheduledTask(record, record.home_worker, 0.0, 1.0)
            for record in records
        ]
        network = simulator.memory.network
        first = simulator._kv_durations(plan, plan.home)
        pricing = plan._pricing
        views = []
        for schedule in (on_moved, on_moved, on_home, on_moved):
            network.reset_flows()
            simulator._register_phase_flows(schedule, 1.0, plan)
            views.append(plan._flows)
            loads = network.load.link_load.copy()
            network.reset_flows()
            fresh = simulator._kv_plan(records)
            simulator._register_phase_flows(schedule, 1.0, fresh)
            assert np.array_equal(network.load.link_load, loads)
            assert np.array_equal(simulator._kv_durations(plan, plan.home), first)
            assert plan._pricing is pricing
        assert views[0] is views[1] and views[2] is not views[1]
        assert not np.array_equal(pricing.dst, views[0].dst)
        network.reset_flows()

    def test_a_platform_switch_gets_a_fresh_view(self):
        simulator, records = _loaded_simulator(16)
        plan = simulator._kv_plan(records)
        first = simulator._kv_durations(plan, plan.home)
        # Both views are built on the platform the switch leaves.
        simulator._register_phase_flows(
            [
                _ScheduledTask(record, record.home_worker, 0.0, d)
                for record, d in zip(records, first)
            ],
            1.0,
            plan,
        )
        slower = simulator.platform.with_vf(
            [DVFS_LADDER[0]] * simulator.platform.layout.num_clusters
        )
        old_network = simulator.memory.network
        # The segment bookkeeping a run keeps, which a switch closes.
        zeros = np.zeros(simulator.platform.num_cores)
        simulator._segments, simulator._segment_start = [], 0.0
        simulator._busy_snapshot = simulator._run_busy = zeros
        simulator._switch_platform(slower, 0.0)
        simulator._refresh_speed_views()
        durations = simulator._kv_durations(plan, plan.home)
        assert not np.array_equal(durations, first)
        for i, record in enumerate(records):
            assert durations[i] == kv_oracle.task_time(
                simulator, record, record.home_worker
            ) + kv_oracle.kv_pull_time(simulator, record, record.home_worker)
        schedule = [
            _ScheduledTask(record, record.home_worker, 0.0, d)
            for record, d in zip(records, durations)
        ]
        old_network.reset_flows()
        simulator._register_phase_flows(schedule, 1.0, plan)
        assert not old_network.load.link_load.any()
        network = simulator.memory.network
        with_plan = network.load.link_load.copy()
        fresh = simulator._kv_plan(records)
        network.reset_flows()
        simulator._register_phase_flows(schedule, 1.0, fresh)
        assert np.array_equal(network.load.link_load, with_plan)
        src = plan.kv_src
        dst = simulator._worker_nodes[plan.home][plan.kv_rec]
        kv = table_oracles.add_flows_full(network, src, dst, plan.kv_bits, True)
        assert kv.any()
