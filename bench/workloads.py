"""The five benchmark workloads and the loop that measures them.

Study workloads resolve paper-pipeline studies through the orchestrator
(``run_campaign`` with ``jobs=1`` -- no worker processes), cold into a
fresh ``StudyCache`` and then warm from it.  Cluster workloads serve a
seeded arrival trace with ``ClusterService.run`` (no prefetch pool) and
then record, load, replay and verify the run.  One *cycle* is one pass
over a workload's studies, or one run -> save -> load -> replay -> verify
round; a measured run repeats cycles until its time is used up.

Every input derives from the ``--seed`` argument.  Output digests are
computed outside the timed regions and must agree cold vs warm, cycle
vs cycle, and -- for the pinned seeds -- with ``expected.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import StudySpec, build_nvfi_mesh, create_app, run_campaign, simulate
from repro.apps import APP_NAMES
from repro.cluster import (
    ClusterRunResult,
    ClusterService,
    create_scheduler,
    fleet_for,
    generate_trace,
    replay,
    verify_replay,
)
from repro.core.experiment import VFI2_WINOC, clear_study_cache
from repro.core.platforms import die_for
from repro.core.serialization import study_to_dict
from repro.faults import preset_plan
from repro.orchestrator import StudyCache
from repro.power.frontier import chip_peak_power_w
from repro.utils.jsonutil import canonical_json

from hostclock import HostClock, Measurement
from spans import (
    END,
    NAME,
    START,
    NullRecorder,
    Recorder,
    TimedCostModel,
    TimedPolicy,
    instrumented,
    layer_table,
    span_cost_s,
    write_chrome_trace,
)

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

STUDY_SCALE = 0.05
WARM_READS = 15
SETUP_REPEATS = 3
#: Chip-level power cap of faults64, as a share of the uncapped peak.
CAP_FRACTION = 0.6
#: Dataset seeds on which the `mixed` fault plan applies to histogram,
#: pca and matrix_multiply alike (each was run on every seed 0-23).
#: The plan's link failure can cut a node off the seeded small-world
#: WiNoC fabric, which the fault engine rejects with FaultInjectionError
#: (seeds 5, 6: histogram; 11: pca; 17, 21: matrix_multiply; kmeans at
#: 7) -- an open robustness finding, see README.  `--seed` picks the
#: first pool seed at or after it, modulo 24.
FAULT_SEED_POOL = (0, 1, 2, 3, 4, 7, 8, 9, 10, 12, 13, 14, 15, 16, 18, 19,
                   20, 22, 23)

E2E_UNITS = {
    "setup_s": "s",
    "compute_s": "s",
    "readback_ms": "ms",
    "cycle_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "apps.run_s": "s",
    "core.platform_build_s": "s",
    "vfi.design_s": "s",
    "sim.simulate_s": "s",
    "sim.simulate_calls": "count",
    "sim.memory_init_s": "s",
    "sim.memory_init_calls": "count",
    "noc.dense_tables_s": "s",
    "sim.loop_self_s": "s",
    "faults.hook_s": "s",
    "faults.hook_calls": "count",
    "power.governor_s": "s",
    "power.governor_polls": "count",
    "serialization.to_dict_s": "s",
    "serialization.from_dict_s": "s",
    "orchestrator.cache_put_s": "s",
    "orchestrator.cache_get_s": "s",
    "orchestrator.study_doc_kb": "KB",
    "cluster.trace_gen_s": "s",
    "cluster.estimate_s": "s",
    "cluster.estimate_calls": "count",
    "cluster.estimates_per_dispatch": "ratio",
    "cluster.policy_self_s": "s",
    "cluster.policy_calls": "count",
    "cluster.engine_self_s": "s",
    "cluster.slo_report_s": "s",
    "cluster.record.payload_json_s": "s",
    "cluster.record.payload_json_calls": "count",
    "cluster.record.digest_s": "s",
    "cluster.record.digest_calls": "count",
    "cluster.record.load_s": "s",
    "cluster.replay.run_s": "s",
    "cluster.verify_s": "s",
    "cluster.record_kb": "KB",
    "cluster.dispatches": "count",
    "cluster.rejected": "count",
    "cluster.retries": "count",
    "cluster.preemptions": "count",
    "cluster.memo_hit_frac": "ratio",
    "bench.self_time_coverage": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "bench.span_cost_frac": "ratio",
}


class Outcome:
    """Operations attempted and failed over one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


def study_digest(study) -> str:
    return hashlib.sha256(
        canonical_json(study_to_dict(study)).encode("utf-8")
    ).hexdigest()


def mean_entry_kb(cache_root: Path) -> float:
    sizes = [p.stat().st_size for p in cache_root.glob("??/*.json")]
    return sum(sizes) / len(sizes) / 1024.0 if sizes else 0.0


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fault_dataset_seed(seed: int) -> int:
    wrapped = seed % 24
    return next(s for s in FAULT_SEED_POOL if s >= wrapped)


# ---------------------------------------------------------------------- #
# study workloads
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class StudyWorkload:
    name: str
    apps: Tuple[str, ...]
    num_workers: int
    default_cycles: int
    faults: bool = False

    def setup(self, seed: int, quick: bool, scratch: Path, recorder) -> List[StudySpec]:
        apps = self.apps[:1] if quick else self.apps
        data_seed = fault_dataset_seed(seed) if self.faults else seed
        # A small warm-up study takes the process's first-use costs
        # (lazy imports, allocator growth) out of the first cold cycle.
        clear_study_cache()
        run_campaign(
            [StudySpec(apps[0], scale=STUDY_SCALE, seed=data_seed, num_workers=16)],
            jobs=1, cache=scratch / "warmup",
        ).raise_failures()
        cap = CAP_FRACTION * chip_peak_power_w(self.num_workers) if self.faults else None
        specs = []
        for app in apps:
            plan = None
            if self.faults:
                horizon = clean_horizon_s(app, data_seed, self.num_workers)
                plan = preset_plan("mixed", horizon, self.num_workers)
            specs.append(StudySpec(
                app, scale=STUDY_SCALE, seed=data_seed, num_workers=self.num_workers,
                fault_plan=plan, power_cap=cap,
            ))
        return specs

    def cycle(self, specs, scratch: Path, recorder, outcome: Outcome,
              quick: bool, clock: HostClock) -> Optional[Dict]:
        cache_root = scratch / "cache"
        cold: List[Measurement] = []
        warm: Dict[str, List[Measurement]] = {}
        digests: Dict[str, str] = {}
        edp: List[float] = []
        for spec in specs:
            clear_study_cache()
            with clock.measure() as timed, recorder.span("bench.study_cold", op=spec.app):
                campaign = run_campaign([spec], jobs=1, cache=cache_root)
            cold.append(timed)
            if not outcome.check(campaign.ok, f"cold {spec.label}: {campaign.errors}"):
                continue
            study = campaign.study(spec)
            digests[spec.app] = study_digest(study)
            edp.append(study.normalized_edp(VFI2_WINOC))
        for spec in specs:
            if spec.app not in digests:
                continue
            reads = warm.setdefault(spec.app, [])
            for _ in range(2 if quick else WARM_READS):
                clear_study_cache()
                with clock.measure() as timed, recorder.span("bench.study_warm", op=spec.app):
                    campaign = run_campaign([spec], jobs=1, cache=cache_root)
                reads.append(timed)
                ok = (
                    campaign.ok
                    and campaign.manifest.records[0].status == "cached"
                    and study_digest(campaign.study(spec)) == digests[spec.app]
                )
                outcome.check(ok, f"warm {spec.label}: differs from its cold study")
        if not cold or not warm:
            return None
        every = cold + [m for reads in warm.values() for m in reads]
        return {
            "compute_s": statistics.fmean(m.ref_s for m in cold),
            # Per-app median read: a short read landing in a burst of
            # host contention does not move it.
            "readback_ms": 1e3 * statistics.fmean(
                statistics.median(m.ref_s for m in reads) for reads in warm.values()
            ),
            "cycle_s": sum(m.ref_s for m in every),
            "cycle_wall_s": sum(m.wall_s for m in every),
            "doc_kb": mean_entry_kb(cache_root),
            "pins": {
                "studies": digests,
                "winoc_edp_ratio": geomean(edp) if edp else None,
            },
        }

    def aliases(self, metrics: Dict) -> Dict[str, Tuple[float, str]]:
        return {
            "study_cold_s": (metrics["compute_s"], "s"),
            "study_warm_ms": (metrics["readback_ms"], "ms"),
        }


def clean_horizon_s(app: str, seed: int, num_workers: int) -> float:
    """Fault-free NVFI makespan: the clock fault-plan events are timed on."""
    instance = create_app(app, scale=STUDY_SCALE, seed=seed)
    trace = instance.run(num_workers=num_workers)
    result = simulate(
        build_nvfi_mesh(die_for(num_workers)), trace,
        locality=instance.profile.l2_locality,
    )
    return result.total_time_s


# ---------------------------------------------------------------------- #
# cluster workloads
# ---------------------------------------------------------------------- #

CLUSTER_CHIPS = 8
CLUSTER_CHIP_WORKERS = 16


@dataclass(frozen=True)
class ClusterSetup:
    trace: object
    fleet: object
    cache: StudyCache
    seed: int


@dataclass(frozen=True)
class ClusterWorkload:
    name: str
    arrivals: int
    mean_gap_s: float
    deadline_fraction: float
    deadline_slack_s: Tuple[float, float]
    policy: str
    queue_depth: int
    source: str
    default_cycles: int

    def setup(self, seed: int, quick: bool, scratch: Path, recorder) -> ClusterSetup:
        with recorder.span("cluster.trace_gen"):
            trace = generate_trace(
                self.name, seed,
                num_jobs=500 if quick else self.arrivals,
                mean_gap_s=self.mean_gap_s,
                deadline_fraction=self.deadline_fraction,
                deadline_slack_s=self.deadline_slack_s,
                priority_levels=3,
            )
        fleet = fleet_for(CLUSTER_CHIPS, num_workers=CLUSTER_CHIP_WORKERS)
        cache = StudyCache(scratch / "cache")
        jobs = {(job.app, job.scale, job.seed): job for job in trace.jobs}
        chips = {chip.class_key: chip for chip in fleet}
        specs = [job.spec_for(chip) for job in jobs.values() for chip in chips.values()]
        clear_study_cache()
        run_campaign(specs, jobs=1, cache=cache).raise_failures()
        return ClusterSetup(trace=trace, fleet=fleet, cache=cache, seed=seed)

    def cycle(self, setup: ClusterSetup, scratch: Path, recorder,
              outcome: Outcome, quick: bool, clock: HostClock) -> Optional[Dict]:
        traced = isinstance(recorder, Recorder)
        policy = create_scheduler(self.policy)
        service = ClusterService(
            setup.fleet,
            policy=TimedPolicy(policy, recorder) if traced else policy,
            max_queue_depth=self.queue_depth,
            cost_model=TimedCostModel(setup.cache, recorder) if traced else None,
            cache=setup.cache,
        )
        options = {"seed": setup.seed} if self.source == "closed" else None
        scratch.mkdir(parents=True, exist_ok=True)
        path = scratch / "record.json"
        step = "run"
        try:
            with clock.measure() as ran, recorder.span("cluster.run", op="run"):
                result = service.run(
                    setup.trace, source=self.source, source_options=options
                )
            outcome.check(True, step)
            step = "save"
            with clock.measure() as saved, recorder.span("cluster.record.save", op="save"):
                result.save(path)
            outcome.check(True, step)
            with clock.measure() as replayed:
                step = "load"
                with recorder.span("cluster.record.load", op="load"):
                    loaded = ClusterRunResult.load(path)
                outcome.check(True, step)
                step = "replay"
                with recorder.span("cluster.replay.run", op="replay"):
                    fresh = replay(loaded, cache=setup.cache)
                outcome.check(True, step)
                step = "verify"
                with recorder.span("cluster.verify", op="verify"):
                    divergence = verify_replay(loaded, fresh)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome.check(False, f"{step}: {exc!r}")
            return None
        # Untimed checks stay out of the cycle's layer table.
        rep, recorder.rep = recorder.rep, None
        digest = loaded.replay_digest
        recorder.rep = rep
        stored = json.loads(path.read_text())["replay_digest"]
        outcome.check(
            divergence is None and digest == stored,
            f"verify: {divergence or 'record digest changed on load'}",
        )
        report = result.report
        stats = result.study_stats
        resolved = stats["memo_hits"] + stats["cache_hits"] + stats["computed"]
        every = (ran, saved, replayed)
        return {
            "compute_s": ran.ref_s,
            "readback_ms": 1e3 * replayed.ref_s,
            "cycle_s": sum(m.ref_s for m in every),
            "cycle_wall_s": sum(m.wall_s for m in every),
            "doc_kb": mean_entry_kb(setup.cache.root),
            "record_kb": path.stat().st_size / 1024.0,
            "save_s": saved.ref_s,
            "arrivals": len(setup.trace),
            "counts": {
                "dispatches": report.completed + report.preemptions,
                "rejected": report.rejected,
                "retries": report.retries,
                "preemptions": report.preemptions,
                "memo_hit_frac": stats["memo_hits"] / resolved if resolved else 0.0,
            },
            "pins": {
                "replay_digest": digest,
                "deadline_met_frac": report.deadlines_met / report.deadlined,
                "goodput_frac": report.completed / report.num_jobs,
                "job_latency_p95_s": report.latency_p95_s,
            },
        }

    def aliases(self, metrics: Dict) -> Dict[str, Tuple[float, str]]:
        return {
            "arrivals_per_s": (metrics["arrivals"] / metrics["compute_s"], "1/s"),
            "record_save_s": (metrics["save_s"], "s"),
            "replay_s": (metrics["readback_ms"] / 1e3, "s"),
        }


WORKLOADS = {
    w.name: w
    for w in (
        StudyWorkload("paper64", tuple(APP_NAMES), 64, default_cycles=3),
        StudyWorkload(
            "faults64", ("pca", "matrix_multiply"), 64,
            default_cycles=2, faults=True,
        ),
        StudyWorkload("die256", ("wordcount",), 256, default_cycles=2),
        ClusterWorkload(
            "cluster-overload", 5_000, mean_gap_s=0.2,
            deadline_fraction=0.25, deadline_slack_s=(90.0, 240.0),
            policy="fifo", queue_depth=64, source="open", default_cycles=6,
        ),
        ClusterWorkload(
            "cluster-served", 4_000, mean_gap_s=2.8,
            deadline_fraction=0.5, deadline_slack_s=(30.0, 90.0),
            policy="edf_preempt", queue_depth=16, source="closed",
            default_cycles=5,
        ),
    )
}


# ---------------------------------------------------------------------- #
# the measured run
# ---------------------------------------------------------------------- #


def layer_values(table: Dict, sample: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced cycle from its layer table."""

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def self_s(name):
        return table[name]["self_s"] if name in table else 0.0

    def calls(*names):
        return sum(table[n]["calls"] for n in names if n in table)

    counts = sample.get("counts", {})
    dispatches = counts.get("dispatches", 0)
    return {
        "apps.run_s": total("apps.run"),
        "core.platform_build_s": total("core.platform_build"),
        "vfi.design_s": total("vfi.design"),
        "sim.simulate_s": total("sim.simulate"),
        "sim.simulate_calls": calls("sim.simulate"),
        "sim.memory_init_s": total("sim.memory_init"),
        "sim.memory_init_calls": calls("sim.memory_init"),
        "noc.dense_tables_s": total("noc.dense_tables"),
        "sim.loop_self_s": self_s("sim.simulate"),
        "faults.hook_s": total("faults.hook"),
        "faults.hook_calls": calls("faults.hook"),
        "power.governor_s": total("power.governor.poll", "power.governor.view"),
        "power.governor_polls": calls("power.governor.poll"),
        "serialization.to_dict_s": total("serialization.to_dict"),
        "serialization.from_dict_s": total("serialization.from_dict"),
        "orchestrator.cache_put_s": total("orchestrator.cache_put"),
        "orchestrator.cache_get_s": total("orchestrator.cache_get"),
        "orchestrator.study_doc_kb": sample["doc_kb"],
        "cluster.estimate_s": total("cluster.estimate"),
        "cluster.estimate_calls": calls("cluster.estimate"),
        "cluster.estimates_per_dispatch": (
            calls("cluster.estimate") / dispatches if dispatches else 0.0
        ),
        "cluster.policy_self_s": self_s("cluster.policy"),
        "cluster.policy_calls": calls("cluster.policy"),
        "cluster.engine_self_s": self_s("cluster.run"),
        "cluster.slo_report_s": total("cluster.slo_report"),
        "cluster.record.payload_json_s": total("cluster.record.payload_json"),
        "cluster.record.payload_json_calls": calls("cluster.record.payload_json"),
        "cluster.record.digest_s": total("cluster.record.digest"),
        "cluster.record.digest_calls": calls("cluster.record.digest"),
        "cluster.record.load_s": total("cluster.record.load"),
        "cluster.replay.run_s": total("cluster.replay.run"),
        "cluster.verify_s": total("cluster.verify"),
        "cluster.record_kb": sample.get("record_kb", 0.0),
        "cluster.dispatches": dispatches,
        "cluster.rejected": counts.get("rejected", 0),
        "cluster.retries": counts.get("retries", 0),
        "cluster.preemptions": counts.get("preemptions", 0),
        "cluster.memo_hit_frac": counts.get("memo_hit_frac", 0.0),
    }


def _spread(values: List[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def load_expected() -> Dict:
    return json.loads(EXPECTED_PATH.read_text())


def past_budget(elapsed: float, cycles: int, seconds: float) -> bool:
    """Whether to stop after *cycles* cycles: the cycle boundary nearest
    to *seconds* is now.  A study cycle (one pass) takes 7-15 s, so a run
    measures whole passes for about *seconds*, not two passes whenever one
    falls just short of it."""
    return elapsed + 0.5 * elapsed / cycles >= seconds


def run(
    name: str,
    seed: int,
    seconds: Optional[float],
    traced: bool,
    quick: bool,
    check_pins: bool,
    scratch: Path,
    clock: HostClock,
    imported: Measurement,
    trace_path: Optional[Path] = None,
) -> Dict:
    """Set up *name*, measure cycles, check outputs; the run's result.

    Without *traced* the metrics are the end-to-end ones, from untraced
    cycles, in reference-host seconds of the started *clock* (see
    ``hostclock``); *imported* is the measured import of the program.
    With *traced*, traced and untraced cycles alternate: the traced ones
    give the per-layer metrics (raw span times, the clock paused), the
    untraced ones the baseline the tracing overhead is measured against.
    *check_pins* compares the outputs with ``expected.json`` when it pins
    *seed*.
    """
    workload = WORKLOADS[name]
    outcome = Outcome()
    recorder = Recorder()
    setup_recorder = recorder if traced else NullRecorder()
    setups: List[Measurement] = []
    for index in range(1 if quick else SETUP_REPEATS):
        with clock.paused() if traced else nullcontext(), clock.measure() as timed:
            state = workload.setup(seed, quick, scratch / f"setup{index}", setup_recorder)
        setups.append(timed)

    if quick or seconds is not None:
        wanted = 1
    else:
        wanted = workload.default_cycles
    if traced:
        wanted = max(wanted, 2)  # at least one untraced and one traced cycle
    samples: Dict[bool, List[Tuple[int, Dict]]] = {False: [], True: []}
    started = perf_counter()
    rep = 0
    while True:
        traced_rep = traced and rep % 2 == 1
        cycle_dir = scratch / f"cycle{rep}"
        # Every cycle starts from a collected heap, so a cycle does not
        # pay for the garbage of the one before it.
        gc.collect()
        if traced_rep:
            recorder.rep = rep
            with clock.paused(), instrumented(recorder):
                sample = workload.cycle(state, cycle_dir, recorder, outcome, quick, clock)
            recorder.rep = None
        else:
            sample = workload.cycle(
                state, cycle_dir, NullRecorder(), outcome, quick, clock
            )
        shutil.rmtree(cycle_dir, ignore_errors=True)
        if sample is not None:
            samples[traced_rep].append((rep, sample))
        rep += 1
        if rep >= wanted and (seconds is None or past_budget(
                perf_counter() - started, rep, seconds)):
            break

    checked = [s for _, s in sorted(samples[False] + samples[True], key=lambda x: x[0])]
    pins = checked[0]["pins"] if checked else None
    for sample in checked[1:]:
        outcome.check(sample["pins"] == pins, "outputs differ between cycles")
    expected = load_expected().get(name, {}).get(str(seed)) if check_pins else None
    if expected is not None:
        mismatched = sorted(
            key for key in expected if pins is None or pins.get(key) != expected[key]
        )
        outcome.check(not mismatched, f"differs from expected.json: {mismatched}")

    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.failed == 0 and bool(checked),
        "errors": outcome.errors,
        "cycles": {"untraced": len(samples[False]), "traced": len(samples[True])},
        "pins": pins,
        "setup": {"import": imported, "runs": setups},
        "metrics": {},
    }
    plain = [s for _, s in samples[False]]
    if not plain:
        return result
    if not traced:
        setup_s = imported.ref_s + statistics.median(m.ref_s for m in setups)
        result.update(e2e_metrics(workload, plain, setup_s))
    elif samples[True]:
        result["metrics"] = layer_metrics(recorder, samples[False], samples[True])
        if trace_path is not None:
            write_chrome_trace(
                trace_path,
                recorder.spans,
                layer_table(recorder.spans),
                {"workload": name, "seed": seed, "per_layer": result["metrics"]},
            )
    return result


def e2e_metrics(workload, plain: List[Dict], setup_s: float) -> Dict:
    """End-to-end metrics (medians over untraced cycles), their spreads
    and the workload's own names for them."""
    metrics = {
        "setup_s": setup_s,
        "compute_s": statistics.median(s["compute_s"] for s in plain),
        "readback_ms": statistics.median(s["readback_ms"] for s in plain),
        "cycle_s": statistics.median(s["cycle_s"] for s in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    aliases = [workload.aliases(s) for s in plain]
    return {
        "metrics": {
            key: {"value": value, "unit": E2E_UNITS[key]}
            for key, value in metrics.items()
        },
        "spread": {
            key: _spread([s[key] for s in plain])
            for key in ("compute_s", "readback_ms", "cycle_s", "cycle_wall_s")
        },
        "aliases": {
            key: (statistics.median(a[key][0] for a in aliases), unit)
            for key, (_, unit) in aliases[0].items()
        },
    }


def layer_metrics(
    recorder: Recorder,
    untraced: List[Tuple[int, Dict]],
    traced: List[Tuple[int, Dict]],
) -> Dict:
    """Per-layer metrics: medians over traced cycles of their per-cycle
    values, plus the tracing's own coverage and cost."""
    per_rep = [
        layer_values(layer_table(recorder.spans, reps={rep}), sample)
        for rep, sample in traced
    ]
    metrics = {key: statistics.median(r[key] for r in per_rep) for key in per_rep[0]}
    gen = [s[END] - s[START] for s in recorder.spans if s[NAME] == "cluster.trace_gen"]
    metrics["cluster.trace_gen_s"] = statistics.median(gen) if gen else 0.0
    traced_table = layer_table(recorder.spans, reps={rep for rep, _ in traced})
    traced_wall = sum(s["cycle_wall_s"] for _, s in traced)
    metrics["bench.self_time_coverage"] = (
        sum(row["self_s"] for row in traced_table.values()) / traced_wall
    )
    # Each traced cycle against the untraced one just before it, so
    # slow drifts of the host cancel within a pair.
    metrics["bench.trace_overhead_frac"] = statistics.median(
        after["cycle_wall_s"] / before["cycle_wall_s"]
        for (_, before), (_, after) in zip(untraced, traced)
    ) - 1.0
    metrics["bench.span_cost_frac"] = (
        span_cost_s() * sum(row["calls"] for row in traced_table.values())
        / traced_wall
    )
    return {
        key: {"value": metrics[key], "unit": unit} for key, unit in LAYER_UNITS.items()
    }
