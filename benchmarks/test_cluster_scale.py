"""Cluster engine at scale: 100k arrivals under a wall-clock budget.

Three guards against the failure modes a smoke trace cannot see:

* ``test_dispatch_overhead_scales_linearly`` drives the event loop with
  scripted costs at two trace sizes and bounds the per-arrival wall
  time ratio -- a regression back to the O(jobs x chips) per-dispatch
  scan shows up here long before the big run times out;
* ``test_100k_arrival_replay_within_budget`` serves and byte-identically
  replays a 100k-arrival overload trace (``fifo``, open loop, ~93 %
  shed at admission) against the real cost model (cold batch fan-out
  first, then a warm cache-only pass) inside generous wall-clock
  budgets, and commits the reference numbers to
  ``results/cluster_scale.json`` -- the replay budget covers re-run plus
  verification, and the re-run, the verification and the record's save
  and load are also reported one by one;
* ``test_100k_served_replay_within_budget`` does the same for a
  near-saturation closed-loop ``edf_preempt`` trace shaped like the
  bench's ``cluster-served`` workload (8 x 16-core chips, queue depth
  16, a 2.8 s mean gap, half the jobs due 30-90 s after arrival, retry
  seed 7), where almost every job is dispatched, so dispatch,
  completion, preemption and record size are measured at scale; its
  numbers go under the ``served`` key of the same file.

The budgets hold roughly 30x headroom over a warm local fifo run (the
engine clears 100k overload arrivals in ~1-2 s, and re-runs and
verifies them in ~1.5 s, on a 2-vCPU host) and over 10x over the served
run (~4-5 s to serve, about as long to re-run and verify): they catch
superlinear blowups, not scheduler jitter on a busy CI runner.  The read-back layers are also held to the run on
the same host: save, load and replay (re-run plus verification) each
report their time over the run's (``save_over_run``, ``load_over_run``,
``replay_over_run``) and must stay under :data:`READBACK_OVER_RUN`, a
ratio about three times what they measure, so a layer that regresses
fails by name whatever the host's speed.
"""

import hashlib
import json
import time

import pytest

from conftest import write_result

from repro.cluster import (
    ClusterService,
    CostModel,
    JobEstimate,
    fleet_for,
    generate_trace,
)
from repro.cluster.record import ClusterRunResult, replay, verify_replay
from repro.orchestrator.cache import StudyCache

RESULT_NAME = "cluster_scale.json"
SEED = 7
NUM_JOBS = 100_000
CHIPS = 8
QUEUE_DEPTH = 64
PREFETCH_JOBS = 4
RUN_BUDGET_S = 60.0
REPLAY_BUDGET_S = 90.0
#: Bound on each read-back layer's time over the run's (host-free).
READBACK_OVER_RUN = 3.0
#: The served variant's queue bound (the bench's ``cluster-served``).
SERVED_QUEUE_DEPTH = 16

#: Measurements from the micro guard, folded into the committed
#: baseline by the 100k test (pytest runs this module top to bottom).
_MICRO = {}


class ScriptedCostModel(CostModel):
    """Deterministic estimates without simulation, for pure engine
    timing: the micro guard must measure dispatch overhead, not the
    (cached) cost of resolving studies."""

    def __init__(self):
        super().__init__(None)

    def estimate(self, job, chip):
        key = f"{job.app}|{job.scale:g}|{job.seed}|{chip.num_workers}"
        digest = hashlib.sha256(key.encode()).digest()
        return JobEstimate(
            service_s=1.0 + digest[0] / 16.0,
            energy_j=50.0 + digest[1] * 2.0,
        )


def _scale_trace(num_jobs):
    # Sustained overload: the queue sits at depth, every arrival walks
    # the admission path, and the heap never drains between instants.
    return generate_trace(
        "scale",
        seed=SEED,
        num_jobs=num_jobs,
        mean_gap_s=0.2,
        deadline_fraction=0.25,
        priority_levels=3,
    )


def _served_trace(num_jobs):
    # Near saturation: the fleet keeps up on average, so the queue
    # fills and drains, closed-loop retries land, and deadline jobs
    # preempt best-effort ones.
    return generate_trace(
        "served",
        seed=SEED,
        num_jobs=num_jobs,
        mean_gap_s=2.8,
        deadline_fraction=0.5,
        deadline_slack_s=(30.0, 90.0),
        priority_levels=3,
    )


@pytest.fixture(scope="module")
def scale_cache(tmp_path_factory):
    """One study cache for the module's 100k runs: the fifo test's cold
    pass fills it, and the served run reads the same eight studies."""
    return StudyCache(tmp_path_factory.mktemp("scale") / "cache")


def _read_back(result, run_wall_s, cache, tmp_path):
    """Replay (re-run plus verification), save and load *result*, each
    timed: the ``wall_clock`` section of its results, and each read-back
    layer's time over the run's."""
    start = time.perf_counter()
    fresh = replay(result, cache=cache, prefetch_jobs=PREFETCH_JOBS)
    replay_run_s = time.perf_counter() - start
    start = time.perf_counter()
    divergence = verify_replay(result, fresh)
    verify_s = time.perf_counter() - start
    assert divergence is None
    replay_wall_s = replay_run_s + verify_s
    assert replay_wall_s < REPLAY_BUDGET_S
    assert fresh.study_stats["computed"] == 0

    # The record round trip, timed alone (no budget: reference numbers).
    path = tmp_path / "record.json"
    start = time.perf_counter()
    result.save(path)
    save_s = time.perf_counter() - start
    start = time.perf_counter()
    loaded = ClusterRunResult.load(path)
    load_s = time.perf_counter() - start
    assert loaded.replay_digest == result.replay_digest
    over_run = {
        "save": save_s / run_wall_s,
        "load": load_s / run_wall_s,
        "replay": replay_wall_s / run_wall_s,
    }
    wall_clock = {
        "run_s": round(run_wall_s, 2),
        "replay_s": round(replay_wall_s, 2),
        "replay_run_s": round(replay_run_s, 2),
        "verify_s": round(verify_s, 2),
        "save_s": round(save_s, 2),
        "load_s": round(load_s, 2),
        "save_over_run": round(over_run["save"], 3),
        "load_over_run": round(over_run["load"], 3),
        "replay_over_run": round(over_run["replay"], 3),
        "readback_over_run_bound": READBACK_OVER_RUN,
        "arrivals_per_s": round(len(result.trace) / run_wall_s),
        "run_budget_s": RUN_BUDGET_S,
        "replay_budget_s": REPLAY_BUDGET_S,
    }
    return wall_clock, over_run


def _write_sections(results_dir, sections):
    """Fold *sections* into ``results/cluster_scale.json``, keeping the
    keys of the other 100k run when the file already holds them."""
    path = results_dir / RESULT_NAME
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        document = {}
    document.update(sections)
    write_result(results_dir, RESULT_NAME, json.dumps(document, indent=2))


def _assert_ratios(over_run, run_wall_s):
    for layer, ratio in over_run.items():
        assert ratio < READBACK_OVER_RUN, (
            f"{layer} took {ratio:.2f}x the {run_wall_s:.2f} s run "
            f"(bound {READBACK_OVER_RUN}x)"
        )


def _per_arrival_seconds(num_jobs):
    trace = _scale_trace(num_jobs)
    service = ClusterService(
        fleet_for(CHIPS, num_workers=16),
        "fifo",
        max_queue_depth=QUEUE_DEPTH,
        cost_model=ScriptedCostModel(),
    )
    start = time.perf_counter()
    service.run(trace)
    return (time.perf_counter() - start) / num_jobs


def test_dispatch_overhead_scales_linearly():
    _per_arrival_seconds(2_000)  # warm-up: imports and allocator churn
    small = _per_arrival_seconds(10_000)
    large = _per_arrival_seconds(40_000)
    ratio = large / small
    _MICRO.update(
        per_arrival_us_10k=round(small * 1e6, 2),
        per_arrival_us_40k=round(large * 1e6, 2),
        ratio_40k_over_10k=round(ratio, 3),
    )
    # Near-constant per-arrival cost; a quadratic dispatch scan would
    # push the ratio toward 4.
    assert ratio < 2.5, _MICRO


def test_100k_arrival_replay_within_budget(
    results_dir, scale_cache, tmp_path
):
    trace = _scale_trace(NUM_JOBS)
    fleet = fleet_for(CHIPS, num_workers=16)
    cache = scale_cache

    # Cold pass: the batched cost-model front fans every unique study
    # out across worker processes before the event loop starts.
    cold = ClusterService(
        fleet,
        "fifo",
        max_queue_depth=QUEUE_DEPTH,
        cache=cache,
        prefetch_jobs=PREFETCH_JOBS,
    ).run(trace)
    cold_stats = cold.study_stats
    assert cold_stats["batches"] >= 1
    assert cold_stats["prefetched"] == cold_stats["unique_specs"]
    assert cold_stats["computed"] == cold_stats["unique_specs"]

    # Warm pass under the run budget: every study resolves from the
    # shared cache, so the clock measures the event engine alone.
    service = ClusterService(
        fleet,
        "fifo",
        max_queue_depth=QUEUE_DEPTH,
        cache=cache,
        prefetch_jobs=PREFETCH_JOBS,
    )
    start = time.perf_counter()
    result = service.run(trace)
    run_wall_s = time.perf_counter() - start
    assert run_wall_s < RUN_BUDGET_S
    stats = result.study_stats
    assert stats["computed"] == 0
    assert stats["batches"] >= 1
    assert result.replay_digest == cold.replay_digest
    report = result.report
    assert report.completed + report.rejected == len(trace)
    assert report.completed > 0

    wall_clock, over_run = _read_back(result, run_wall_s, cache, tmp_path)
    _write_sections(results_dir, {
        "num_jobs": NUM_JOBS,
        "seed": SEED,
        "trace_key": trace.trace_key,
        "fleet": {"chips": CHIPS, "num_workers": 16},
        "policy": "fifo",
        "max_queue_depth": QUEUE_DEPTH,
        "replay_digest": result.replay_digest,
        "study_stats": stats,
        "report": {
            "completed": report.completed,
            "rejected": report.rejected,
            "deadlines_met": report.deadlines_met,
            "makespan_s": round(report.makespan_s, 3),
            "total_energy_j": round(report.total_energy_j, 3),
        },
        "wall_clock": wall_clock,
        "dispatch_micro": _MICRO or None,
    })
    _assert_ratios(over_run, run_wall_s)


def test_100k_served_replay_within_budget(results_dir, scale_cache, tmp_path):
    trace = _served_trace(NUM_JOBS)
    fleet = fleet_for(CHIPS, num_workers=16)
    service = ClusterService(
        fleet,
        "edf_preempt",
        max_queue_depth=SERVED_QUEUE_DEPTH,
        cache=scale_cache,
        prefetch_jobs=PREFETCH_JOBS,
    )

    # Resolve the trace's studies untimed, so the clock measures the
    # engine alone; after the fifo run they are all cached (the same
    # eight), and this only reads them.
    datasets = {(job.app, job.scale, job.seed): job for job in trace.jobs}
    CostModel(scale_cache).prefetch(
        [job.spec_for(chip) for job in datasets.values() for chip in fleet],
        jobs=PREFETCH_JOBS,
    )
    start = time.perf_counter()
    result = service.run(
        trace, source="closed", source_options={"seed": SEED}
    )
    run_wall_s = time.perf_counter() - start
    assert run_wall_s < RUN_BUDGET_S
    stats = result.study_stats
    assert stats["computed"] == 0
    report = result.report
    assert report.completed + report.rejected == len(trace)
    # Near saturation, not overload: most jobs are served, after
    # retries and preemptions.
    assert report.completed > 0.9 * len(trace)
    assert report.retries > 0
    assert report.preemptions > 0

    wall_clock, over_run = _read_back(
        result, run_wall_s, scale_cache, tmp_path
    )
    _write_sections(results_dir, {"served": {
        "num_jobs": NUM_JOBS,
        "seed": SEED,
        "trace_key": trace.trace_key,
        "fleet": {"chips": CHIPS, "num_workers": 16},
        "policy": "edf_preempt",
        "max_queue_depth": SERVED_QUEUE_DEPTH,
        "source": result.source,
        "replay_digest": result.replay_digest,
        "study_stats": stats,
        "report": {
            "completed": report.completed,
            "rejected": report.rejected,
            "dispatches": report.completed + report.preemptions,
            "retries": report.retries,
            "preemptions": report.preemptions,
            "deadlines_met": report.deadlines_met,
            "deadlined": report.deadlined,
            "makespan_s": round(report.makespan_s, 3),
            "total_energy_j": round(report.total_energy_j, 3),
        },
        "wall_clock": wall_clock,
    }})
    _assert_ratios(over_run, run_wall_s)
