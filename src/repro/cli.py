"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-apps``
    Show the six benchmark applications and their paper datasets.
``run-study <app>``
    Run one application through the full pipeline and print the
    normalized time/EDP of every configuration.
``design <app>``
    Run only the VFI design flow and print the clustering and V/F tables.
``report [--output FILE] [--jobs N] [--cache-dir PATH]``
    Run all six studies -- fanned out over N worker processes and cached
    on disk via the orchestrator -- and emit the full markdown
    reproduction report.
``sweep [app] --parameter {seed,size}``
    Orchestrated robustness/scalability sweep: run the pipeline across
    seeds or die sizes and print per-value plus aggregate tables.
``trace --app <app> [--system CONFIG]``
    Run one study with telemetry recording, write the Chrome trace-event
    JSON (open it at https://ui.perfetto.dev) and print the per-phase and
    per-island summary tables.
``faults <app> [--scenario NAME | --plan FILE]``
    Run the app clean and under a deterministic fault plan (preset
    scenario placed against the measured fault-free makespan, or a plan
    file) and print the per-configuration degradation table.
``cluster run [--workload NAME | --trace FILE] [--policy NAME|all]``
    Serve a seeded multi-job arrival trace on a fleet of simulated chips
    through one (or every) registered cluster scheduling policy; print
    the SLO table and optionally record the run as canonical JSON.
    ``--source closed`` turns backpressure rejections into seeded
    retry backoff; ``--jobs N`` prefetches the run's distinct studies
    through N parallel orchestrator workers before the event loop.
``cluster replay --record FILE [--jobs N]``
    Re-run a recorded cluster run (same trace/policy/fleet/source) and
    verify the replay is byte-identical (exit nonzero on divergence).
``cluster report --record FILE [FILE ...]``
    Render the markdown policy-comparison section from saved records.
``tech list``
    Show the technology-node tables (both scaling variants) and the
    core-type registry the tech axis is built from.
``tech frontier [--app APP] [--nodes ...] [--mixes ...] [--caps ...]``
    Sweep one app across technology configurations (node x core mix)
    through the orchestrator, print the dark-silicon frontier and the
    measured comparison, and optionally write the markdown section and
    the campaign manifest.
``tech export [--output FILE] [--format {md,json}]``
    Export the node/core tables and the dark-silicon frontier as
    markdown or JSON.
``power list``
    Show the estimated uncapped chip peaks and the default cap ladders
    per die size.
``power sweep [--app APP] [--caps W ...] [--plan FILE]``
    Run one app at the uncapped baseline plus several chip power caps
    through the orchestrator (optionally composed with a fault plan),
    print the measured throughput/energy/EDP frontier and optionally
    write the markdown section and the campaign manifest.
``power export [--output FILE] [--format {md,json}]``
    Export the estimated peaks / default cap ladders as markdown or
    JSON.
``topology <app>``
    Build the application's WiNoC and render it (die map, V/F floorplan,
    degrees, link histogram).

Flags shared by several commands -- ``--scale/--seed``,
``--num-workers``, ``--jobs/--cache-dir``, ``--manifest``,
``--output/--format`` -- are declared once, as argparse parent parsers,
and each leaf parser names its handler with ``set_defaults``.  Swept
values (``--values``, ``--nodes``, ``--mixes``, ``--caps``) run once
each, in the order given.

Every subcommand exits nonzero with a one-line message on stderr when
given bad arguments, and prints nothing else first; tracebacks are
reserved for actual bugs.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis.tables import ascii_bars, format_table, table1_datasets
from repro.apps.registry import APP_NAMES
from repro.core.experiment import (
    NVFI_MESH,
    VFI1_MESH,
    VFI2_MESH,
    VFI2_WINOC,
    run_app_study,
)
from repro.faults.scenarios import SCENARIOS as FAULT_SCENARIOS

#: Simulated configurations addressable from the command line.
CONFIG_CHOICES = (NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC)

class _Distinct(argparse.Action):
    """Store a list option with repeats dropped, first occurrence kept."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, list(dict.fromkeys(values)))


def _command(commands, name, handler, help, *parents):
    """Add leaf command *name* to *commands*, dispatched to *handler*."""
    parser = commands.add_parser(name, help=help, parents=list(parents))
    parser.set_defaults(handler=handler)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    # Flag groups that several commands share, each declared once as a
    # parent parser.
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--scale", type=float, default=1.0)
    study.add_argument("--seed", type=int, default=7)
    die = argparse.ArgumentParser(add_help=False)
    die.add_argument(
        "--num-workers", type=int, default=64, help="cores on the die"
    )
    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the study campaign (default: serial)",
    )
    campaign.add_argument(
        "--cache-dir", default=None,
        help="persistent study cache directory (re-runs resolve instantly)",
    )
    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument(
        "--manifest", default=None,
        help="save the campaign's run manifest (JSON) to this path; a "
        "sibling .trace.json with the per-unit timeline is written too",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output", default=None, help="write to file (default: stdout)"
    )
    export = argparse.ArgumentParser(add_help=False, parents=[output])
    export.add_argument("--format", choices=("md", "json"), default="md")
    axis_sweep = argparse.ArgumentParser(add_help=False)
    axis_sweep.add_argument("--app", default="histogram", choices=APP_NAMES)
    axis_sweep.add_argument(
        "--report", default=None,
        help="write the markdown report section to this path",
    )
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument(
        "--variant", choices=("itrs", "cons"), default="itrs",
        help="technology-scaling trajectory (optimistic vs conservative)",
    )
    die_sizes = argparse.ArgumentParser(add_help=False)
    die_sizes.add_argument(
        "--num-workers", type=int, nargs="+", default=None, metavar="N",
        help="die sizes to price (default: 16 64 256)",
    )
    prefetch = argparse.ArgumentParser(add_help=False)
    prefetch.add_argument("--cache-dir", default=None)
    prefetch.add_argument(
        "--jobs", type=int, default=None,
        help="prefetch the run's distinct studies through N parallel "
        "orchestrator workers before the event loop starts",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Energy-efficient MapReduce on VFI-enabled wireless-NoC "
            "multicore platforms (DAC 2015 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "list-apps", _cmd_list_apps,
             "list the six benchmark applications")
    run_study = _command(sub, "run-study", _cmd_run_study,
                         "run one app through the pipeline", study)
    run_study.add_argument("app", choices=APP_NAMES)
    design = _command(sub, "design", _cmd_design,
                      "run only the VFI design flow", study)
    design.add_argument("app", choices=APP_NAMES)
    _command(sub, "report", _cmd_report, "full markdown reproduction report",
             output, study, campaign)

    sweep = _command(sub, "sweep", _cmd_sweep,
                     "orchestrated seed/size sweep of one app",
                     study, die, campaign, manifest)
    sweep.add_argument("app", nargs="?", default="histogram", choices=APP_NAMES)
    sweep.add_argument(
        "--parameter", choices=("seed", "size"), default="seed",
        help="sweep random seeds (robustness) or die sizes (scalability)",
    )
    sweep.add_argument(
        "--values", type=int, nargs="+", default=None, action=_Distinct,
        help="swept values (default: seeds 7-11, or sizes 16 36 64)",
    )

    trace = _command(sub, "trace", _cmd_trace,
                     "record a telemetry trace of one app study", study, die)
    trace.add_argument("--app", required=True, choices=APP_NAMES)
    trace.add_argument(
        "--system", choices=CONFIG_CHOICES, default=VFI2_WINOC,
        help="configuration the summary tables focus on",
    )
    trace.add_argument(
        "--output", default=None,
        help="Chrome trace-event JSON path (default <app>_<system>.trace.json)",
    )
    trace.add_argument(
        "--jsonl", default=None,
        help="also dump every telemetry record as JSONL to this path",
    )
    trace.add_argument(
        "--wall", action="store_true",
        help="include wall-clock spans (design flow, pipeline stages); "
        "makes the export non-deterministic",
    )

    faults = _command(sub, "faults", _cmd_faults,
                      "deterministic fault-injection study of one app",
                      study, die, campaign, manifest)
    faults.add_argument("app", choices=APP_NAMES)
    faults.add_argument(
        "--scenario", choices=FAULT_SCENARIOS, default="mixed",
        help="preset fault scenario, placed against the fault-free makespan",
    )
    faults.add_argument(
        "--plan", default=None,
        help="JSON fault-plan file to inject instead of a preset scenario",
    )
    faults.add_argument(
        "--trace", default=None,
        help="re-run the faulted study with telemetry and write the "
        "Chrome trace-event JSON here",
    )
    faults.add_argument(
        "--export-plan", default=None,
        help="write the injected plan's canonical JSON to this path",
    )

    cluster = sub.add_parser(
        "cluster", help="multi-job cluster service (run/replay/report)"
    ).add_subparsers(dest="cluster_command", required=True)
    cluster_run = _command(
        cluster, "run", _cluster_run,
        "serve an arrival trace through a scheduling policy", prefetch,
    )
    from repro.cluster.arrivals import WORKLOADS as _WORKLOADS

    cluster_run.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="smoke",
        help="preset seeded workload (ignored when --trace is given)",
    )
    cluster_run.add_argument(
        "--trace", default=None,
        help="arrival-trace JSON file to serve instead of a preset",
    )
    cluster_run.add_argument(
        "--policy", default="all",
        help="registered scheduler name, or 'all' for the comparison table",
    )
    cluster_run.add_argument("--seed", type=int, default=7)
    cluster_run.add_argument(
        "--chips", type=int, default=2, help="fleet size"
    )
    cluster_run.add_argument(
        "--num-workers", type=int, default=16, help="cores per chip"
    )
    cluster_run.add_argument(
        "--queue-depth", type=int, default=8,
        help="admission-control queue bound (backpressure beyond it)",
    )
    cluster_run.add_argument(
        "--fault-plan", default=None,
        help="JSON fault-plan file degrading chip 0 (fault-axis composition)",
    )
    cluster_run.add_argument(
        "--record", default=None,
        help="save the run record(s) as canonical JSON; with --policy all "
        "a _<policy> suffix is appended per policy",
    )
    cluster_run.add_argument(
        "--export-trace", default=None,
        help="write the served arrival trace's canonical JSON to this path",
    )
    cluster_run.add_argument(
        "--source", choices=("open", "closed"), default="open",
        help="arrival discipline: 'open' sheds backpressured jobs, "
        "'closed' retries them with seeded exponential backoff",
    )
    cluster_run.add_argument(
        "--retry-limit", type=int, default=3,
        help="closed loop: re-submissions before a job gives up",
    )
    cluster_run.add_argument(
        "--backoff-base", type=float, default=5.0,
        help="closed loop: first-retry backoff (seconds, doubles per try)",
    )
    cluster_run.add_argument(
        "--backoff-cap", type=float, default=120.0,
        help="closed loop: backoff ceiling (seconds)",
    )
    cluster_replay = _command(cluster, "replay", _cluster_replay,
                              "re-run a recorded cluster run and verify it",
                              prefetch)
    cluster_replay.add_argument("--record", required=True)
    cluster_report = _command(cluster, "report", _cluster_report,
                              "markdown policy comparison from saved records",
                              output)
    cluster_report.add_argument("--record", nargs="+", required=True)

    tech = sub.add_parser(
        "tech", help="technology axis (list/frontier/export)"
    ).add_subparsers(dest="tech_command", required=True)
    _command(tech, "list", _tech_list,
             "show node tables and core-type registry")
    tech_frontier = _command(
        tech, "frontier", _tech_frontier,
        "sweep an app across nodes x core mixes via the orchestrator",
        axis_sweep, variant, study, die, campaign, manifest,
    )
    tech_frontier.add_argument(
        "--nodes", nargs="+", default=None, metavar="NODE", action=_Distinct,
        help="technology nodes to sweep (default: 65nm 45nm 32nm)",
    )
    tech_frontier.add_argument(
        "--mixes", nargs="+", default=None, metavar="MIX", action=_Distinct,
        help="core types / mix presets to sweep (default: ooo big_little)",
    )
    tech_frontier.add_argument(
        "--caps", type=float, nargs="+", default=None, metavar="W",
        action=_Distinct,
        help="chip power caps for the dark-silicon table "
        "(default: 40 80 120)",
    )
    tech_export = _command(tech, "export", _tech_export,
                           "export node/core tables and the frontier",
                           export, variant)
    tech_export.add_argument(
        "--nodes", nargs="+", default=None, metavar="NODE",
        help="nodes to export (default: every node)",
    )

    power = sub.add_parser(
        "power", help="power-cap axis (list/sweep/export)"
    ).add_subparsers(dest="power_command", required=True)
    _command(power, "list", _power_list,
             "show estimated chip peaks and the default cap ladders",
             die_sizes)
    power_sweep = _command(
        power, "sweep", _power_sweep,
        "run an app at several chip power caps via the orchestrator",
        axis_sweep, study, die, campaign, manifest,
    )
    power_sweep.add_argument(
        "--caps", type=float, nargs="+", default=None, metavar="W",
        action=_Distinct,
        help="chip caps in watts (default: 90/75/60/45%% of the "
        "estimated uncapped chip peak)",
    )
    power_sweep.add_argument(
        "--plan", default=None, metavar="FILE",
        help="compose every cap level with this fault plan (canonical "
        "JSON file), demonstrating the cap x fault product",
    )
    _command(power, "export", _power_export,
             "export the default cap ladders as markdown or JSON",
             export, die_sizes)

    topology = _command(sub, "topology", _cmd_topology,
                        "render an app's WiNoC", study)
    topology.add_argument("app", choices=APP_NAMES)
    topology.add_argument(
        "--methodology", choices=("max_wireless", "min_hop"), default="max_wireless"
    )
    return parser


def _cmd_list_apps(args) -> int:
    print(table1_datasets())
    return 0


def _cmd_run_study(args) -> int:
    study = run_app_study(args.app, scale=args.scale, seed=args.seed)
    print(f"{study.label}: V/F islands (VFI 2): {', '.join(study.design.vfi2.labels())}")
    rows = []
    for config in (NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC):
        result = study.result(config)
        rows.append(
            {
                "config": config,
                "time vs NVFI": f"{study.normalized_time(config):.3f}",
                "EDP vs NVFI": f"{study.normalized_edp(config):.3f}",
                "avg hops": f"{result.network.average_hops:.2f}",
                "wireless %": f"{result.network.wireless_fraction * 100:.1f}",
            }
        )
    print(format_table(rows))
    return 0


def _cmd_design(args) -> int:
    study = run_app_study(args.app, scale=args.scale, seed=args.seed)
    design = study.design
    print(f"Design for {study.label} (from the NVFI characterization):")
    print("\nIsland membership (worker -> island):")
    members = {}
    for worker, cluster in enumerate(design.worker_clusters):
        members.setdefault(cluster, []).append(worker)
    rows = []
    for island in sorted(members):
        rows.append(
            {
                "island": island,
                "VFI 1": design.vfi1.labels()[island],
                "VFI 2": design.vfi2.labels()[island],
                "mean util": f"{design.vfi1.island_utilization[island]:.3f}",
                "workers": " ".join(map(str, members[island][:8]))
                + (" ..." if len(members[island]) > 8 else ""),
            }
        )
    print(format_table(rows))
    report = design.bottleneck
    print(
        f"\nBottleneck: workers {report.bottleneck_workers or 'none'} "
        f"(ratio {report.ratio:.2f}, body cv {report.body_cv:.3f}); "
        f"reassigned islands: {list(design.vfi2.reassigned_islands) or 'none'}"
    )
    print("\nUtilization profile (sorted):")
    utilization = sorted(design.utilization, reverse=True)
    bars = {f"p{100 - 10 * i}": utilization[min(63, i * 6)] for i in range(10)}
    print(ascii_bars(bars, reference=1.0, width=30))
    return 0


def _print_progress(record) -> None:
    """One line per resolved study unit (long campaigns stay observable)."""
    note = f" after {record.retries} retries" if record.retries else ""
    line = f"{record.label}: {record.status}{note} ({record.wall_time_s:.1f}s)"
    if record.error:
        line += f" -- {record.error}"
    print(line, file=sys.stderr)


def _write_or_print(text: str, path: Optional[str], what: str, end: str = "") -> None:
    """Write *text* to *path* and say so, or print it when no path is given."""
    if path:
        with open(path, "w") as handle:
            handle.write(text)
        print(f"{what} written to {path}")
    else:
        print(text, end=end)


def _save_manifest(manifest, path: str) -> None:
    """Save a campaign's run manifest plus its sibling .trace.json timeline."""
    manifest_path = pathlib.Path(path)
    manifest.save(manifest_path)
    trace_path = manifest_path.with_suffix(".trace.json")
    manifest.save_trace(trace_path)
    print(f"run manifest saved to {manifest_path} (+ {trace_path})")


def _cmd_report(args) -> int:
    from repro.analysis.figures import collect_studies
    from repro.analysis.report import generate_report

    studies = collect_studies(
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        progress=_print_progress,
    )
    text = generate_report(studies, args.scale, args.seed)
    _write_or_print(text, args.output, "report", end="\n")
    return 0


def _cmd_sweep(args) -> int:
    from repro.core.sweep import CONFIGS, seed_sweep, size_sweep

    if args.parameter == "seed":
        values = args.values if args.values else list(range(7, 12))
        sweep = seed_sweep(
            args.app,
            seeds=values,
            scale=args.scale,
            num_workers=args.num_workers,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            progress=_print_progress,
        )
    else:
        values = args.values if args.values else [16, 36, 64]
        sweep = size_sweep(
            args.app,
            sizes=values,
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            progress=_print_progress,
        )

    print(f"{args.app}: sweep over {sweep.parameter} = {values}")
    rows = []
    for value, row in sweep.rows.items():
        for config in CONFIGS:
            rows.append(
                {
                    sweep.parameter: value,
                    "config": config,
                    "time vs NVFI": f"{row[config]['time']:.3f}",
                    "EDP vs NVFI": f"{row[config]['edp']:.3f}",
                }
            )
    print(format_table(rows))
    print("\nAggregate over the sweep (mean +/- std):")
    rows = []
    for config, metrics in sweep.aggregate().items():
        rows.append(
            {
                "config": config,
                "time": f"{metrics['time'][0]:.3f} +/- {metrics['time'][1]:.3f}",
                "EDP": f"{metrics['edp'][0]:.3f} +/- {metrics['edp'][1]:.3f}",
                "EDP spread": f"{sweep.spread(config, 'edp'):.3f}",
            }
        )
    print(format_table(rows))
    if args.manifest:
        print()
        _save_manifest(sweep.manifest, args.manifest)
    return 0


def _cmd_trace(args) -> int:
    from repro.telemetry import RecordingTracer, use_tracer
    from repro.telemetry.export import write_chrome_trace, write_jsonl
    from repro.telemetry.summary import (
        format_island_table,
        format_phase_table,
    )

    tracer = RecordingTracer()
    # use_cache=False: a memoized study would skip the simulations and
    # record nothing; tracing demands the run actually happen.
    with use_tracer(tracer):
        study = run_app_study(
            args.app,
            scale=args.scale,
            seed=args.seed,
            num_workers=args.num_workers,
            use_cache=False,
        )
    result = study.result(args.system)

    output = args.output or f"{args.app}_{args.system}.trace.json"
    write_chrome_trace(tracer, output, include_wall=args.wall)
    print(f"trace written to {output} (open at https://ui.perfetto.dev)")
    if args.jsonl:
        write_jsonl(tracer, args.jsonl, include_wall=args.wall)
        print(f"telemetry records written to {args.jsonl}")

    print(f"\nPer-phase timeline (simulated, {study.label}):")
    print(format_phase_table(tracer))
    print(f"\nPer-island activity ({result.platform_name}):")
    print(
        format_island_table(
            tracer, result.platform_name, study.design.worker_clusters
        )
    )
    steals = tracer.counter_total("sched.steals", key=result.platform_name)
    attempts = tracer.counter_total(
        "sched.steal_attempts", key=result.platform_name
    )
    rejections = tracer.counter_total(
        "sched.cap_rejections", key=result.platform_name
    )
    print(
        f"\nMap-phase stealing on {result.platform_name}: "
        f"{steals:.0f} steals / {attempts:.0f} attempts, "
        f"{rejections:.0f} Eq. (3) cap rejections"
    )
    return 0


def _load_fault_plan(path):
    """The :class:`FaultPlan` stored at *path*; a malformed file raises
    one ``ValueError`` naming it."""
    from repro.faults import FaultPlan
    from repro.utils.jsonutil import load_json_object

    return load_json_object(path, FaultPlan.from_dict)


def _cmd_faults(args) -> int:
    from repro.analysis.report import degradation_rows
    from repro.faults import preset_plan
    from repro.orchestrator.executor import run_campaign
    from repro.orchestrator.spec import StudySpec

    # A plan file is read before any study runs, so a malformed one
    # fails fast instead of after the clean baseline campaign.
    plan = _load_fault_plan(args.plan) if args.plan is not None else None
    clean_spec = StudySpec(
        args.app, scale=args.scale, seed=args.seed, num_workers=args.num_workers
    )
    baseline = run_campaign(
        [clean_spec], jobs=args.jobs, cache=args.cache_dir,
        progress=_print_progress,
    )
    baseline.raise_failures()
    clean = baseline.study(clean_spec)
    horizon = clean.result(NVFI_MESH).total_time_s

    if plan is None:
        plan = preset_plan(args.scenario, horizon, args.num_workers)
    if len(plan) == 0:
        raise ValueError("fault plan is empty; nothing to inject")
    if args.export_plan:
        with open(args.export_plan, "w") as handle:
            handle.write(plan.to_json() + "\n")
        print(f"fault plan written to {args.export_plan}", file=sys.stderr)

    faulted_spec = StudySpec(
        args.app, scale=args.scale, seed=args.seed,
        num_workers=args.num_workers, fault_plan=plan,
    )
    campaign = run_campaign(
        [faulted_spec], jobs=args.jobs, cache=args.cache_dir,
        progress=_print_progress,
    )
    campaign.raise_failures()
    faulted = campaign.study(faulted_spec)

    impact = next(
        (r.faults for r in faulted.results.values() if r.faults is not None),
        None,
    )
    print(
        f"{clean.label}: plan '{plan.name or 'plan'}' "
        f"({len(plan)} events) against a {horizon * 1e3:.1f} ms baseline"
    )
    if impact is not None and impact.failed_workers:
        print(f"failed cores: {impact.failed_workers}")
    if impact is not None and impact.throttled_islands:
        print(f"throttled islands: {impact.throttled_islands}")
    print(format_table(degradation_rows(clean, faulted)))

    if args.manifest:
        _save_manifest(campaign.manifest, args.manifest)

    if args.trace:
        from repro.telemetry import RecordingTracer, use_tracer
        from repro.telemetry.export import write_chrome_trace

        tracer = RecordingTracer()
        # use_cache=False: the faulted study above is memoized, and a
        # memo hit would record nothing.
        with use_tracer(tracer):
            run_app_study(
                args.app, scale=args.scale, seed=args.seed,
                num_workers=args.num_workers, use_cache=False,
                fault_plan=plan,
            )
        write_chrome_trace(tracer, args.trace)
        print(f"fault trace written to {args.trace} "
              "(open at https://ui.perfetto.dev)")
    return 0


def _cluster_run(args) -> int:
    from repro.analysis.report import cluster_rows
    from repro.cluster import (
        ArrivalTrace,
        ClusterService,
        fleet_for,
        preset_trace,
        scheduler_names,
    )
    from repro.utils.jsonutil import load_json_object

    if args.trace is not None:
        trace = load_json_object(args.trace, ArrivalTrace.from_dict)
    else:
        trace = preset_trace(args.workload, seed=args.seed)

    fault_plans = None
    if args.fault_plan is not None:
        plan = _load_fault_plan(args.fault_plan)
        fault_plans = [plan] + [None] * (args.chips - 1)
    fleet = fleet_for(
        args.chips, num_workers=args.num_workers, fault_plans=fault_plans
    )

    if args.policy == "all":
        policies = scheduler_names()
    else:
        policies = [args.policy]
    # One service per policy, all built before the banner: the service
    # vets the policy name, the queue bound and the prefetch width.
    services = [
        ClusterService(
            fleet, policy=policy, cache=args.cache_dir,
            max_queue_depth=args.queue_depth, prefetch_jobs=args.jobs,
        )
        for policy in policies
    ]

    print(
        f"workload {trace.name} (seed {trace.seed}, {len(trace)} jobs, "
        f"trace {trace.trace_key[:12]}) on {len(fleet)} x "
        f"{args.num_workers}-core chips, queue bound {args.queue_depth}",
        file=sys.stderr,
    )
    source_options = None
    if args.source == "closed":
        source_options = {
            "retry_limit": args.retry_limit,
            "backoff_base_s": args.backoff_base,
            "backoff_cap_s": args.backoff_cap,
        }
    results = []
    while services:
        # Popped, so each policy's study memo is freed after its run.
        result = services.pop(0).run(
            trace, source=args.source, source_options=source_options
        )
        stats = result.study_stats
        extras = ""
        if result.report.retries or result.report.preemptions:
            extras = (
                f", {result.report.retries} retries, "
                f"{result.report.preemptions} preemptions"
            )
        print(
            f"{result.policy}: {result.report.completed} completed, "
            f"{stats['computed']} studies simulated, "
            f"{stats['cache_hits']} cache hits{extras} "
            f"(digest {result.replay_digest[:12]})",
            file=sys.stderr,
        )
        results.append(result)

    print(format_table(cluster_rows(results)))
    if args.export_trace:
        with open(args.export_trace, "w") as handle:
            handle.write(trace.to_json() + "\n")
        print(f"arrival trace written to {args.export_trace}", file=sys.stderr)
    if args.record:
        base = pathlib.Path(args.record)
        for result in results:
            if len(results) == 1:
                path = base
            else:
                path = base.with_name(
                    f"{base.stem}_{result.policy}{base.suffix or '.json'}"
                )
            result.save(path)
            print(f"run record saved to {path}", file=sys.stderr)
    return 0


def _cluster_replay(args) -> int:
    from repro.cluster.record import ClusterRunResult, replay, verify_replay

    record = ClusterRunResult.load(args.record)
    replayed = replay(record, cache=args.cache_dir, prefetch_jobs=args.jobs)
    divergence = verify_replay(record, replayed)
    stats = replayed.study_stats
    if divergence is not None:
        print(f"repro: error: {divergence}", file=sys.stderr)
        return 3
    batched = ""
    if stats.get("batches"):
        batched = (
            f", {stats['prefetched']} prefetched in "
            f"{stats['batches']} batch(es)"
        )
    print(
        f"replay byte-identical (digest {record.replay_digest[:12]}): "
        f"{record.policy} on {record.trace.name}, "
        f"{replayed.report.completed} jobs completed, "
        f"{stats['computed']} studies simulated, "
        f"{stats['cache_hits']} cache hits{batched}"
    )
    return 0


def _cluster_report(args) -> int:
    from repro.analysis.report import cluster_section
    from repro.cluster.record import ClusterRunResult

    results = [ClusterRunResult.load(path) for path in args.record]
    _write_or_print(cluster_section(results), args.output, "cluster report")
    return 0


def _tech_list(args) -> int:
    from repro.tech import (
        VARIANTS,
        core_type_names,
        dvfs_ladder,
        get_core_type,
        get_node,
        node_names,
    )

    for variant in VARIANTS:
        print(f"technology nodes ({variant}):")
        rows = []
        for name in node_names():
            node = get_node(name, variant)
            ladder = dvfs_ladder(node)
            rows.append(
                {
                    "node": node.name,
                    "Vdd (V)": f"{node.vdd_nominal_v:.2f}",
                    "Vth (V)": f"{node.vth_v:.2f}",
                    "clock (GHz)": f"{node.frequency_nominal_hz / 1e9:.2f}",
                    "dyn x": f"{node.dynamic_scale:.2f}",
                    "leak x": f"{node.leakage_scale:.2f}",
                    "area x": f"{node.area_scale:.2f}",
                    "ladder": " ".join(p.label for p in ladder[:: len(ladder) - 1]),
                }
            )
        print(format_table(rows))
        print()
    print("core types:")
    rows = []
    for name in core_type_names():
        core = get_core_type(name)
        rows.append(
            {
                "type": core.name,
                "perf x": f"{core.perf_scale:.2f}",
                "dyn x": f"{core.dynamic_scale:.2f}",
                "leak x": f"{core.leakage_scale:.2f}",
                "area x": f"{core.area_scale:.2f}",
                "description": core.description,
            }
        )
    print(format_table(rows))
    return 0


def _tech_frontier(args) -> int:
    from repro.analysis.report import (
        TECH_DEFAULT_CAPS_W,
        TECH_DEFAULT_MIXES,
        TECH_DEFAULT_NODES,
        tech_frontier_rows,
        tech_section,
        tech_study_rows,
    )
    from repro.orchestrator.executor import run_campaign
    from repro.orchestrator.spec import expand_grid
    from repro.tech import TechSpec, get_node

    nodes = tuple(args.nodes) if args.nodes else TECH_DEFAULT_NODES
    mixes = tuple(args.mixes) if args.mixes else TECH_DEFAULT_MIXES
    caps = tuple(args.caps) if args.caps else TECH_DEFAULT_CAPS_W
    # Vet the axes up front so a typo or a non-positive cap fails before
    # the campaign starts.
    for node in nodes:
        get_node(node, args.variant)
    for cap in caps:
        if cap <= 0:
            raise ValueError(f"chip_cap_w must be > 0, got {cap}")
    sweep = [
        TechSpec(node=node, variant=args.variant, cores=mix)
        for node in nodes
        for mix in mixes
    ]
    specs = expand_grid(
        [args.app],
        scales=[args.scale],
        seeds=[args.seed],
        num_workers=[args.num_workers],
        tech=sweep,
    )
    campaign = run_campaign(
        specs, jobs=args.jobs, cache=args.cache_dir, progress=_print_progress,
    )
    campaign.raise_failures()
    tech_studies = {}
    for spec in specs:
        label = "default (65nm)" if spec.tech is None else spec.tech_spec().label
        tech_studies[label] = campaign.study(spec)

    print(
        f"{args.app}: {len(specs)} technology configurations "
        f"({len(nodes)} nodes x {len(mixes)} mixes, variant {args.variant})"
    )
    print("\nDark-silicon frontier (active cores / throughput under a cap):")
    print(
        format_table(
            tech_frontier_rows(nodes, mixes, caps, args.num_workers, args.variant)
        )
    )
    print("\nMeasured sweep (vfi2_winoc per technology configuration):")
    print(format_table(tech_study_rows(tech_studies)))

    if args.report:
        print()
        _write_or_print(
            tech_section(
                tech_studies, nodes=nodes, mixes=mixes, caps_w=caps,
                num_cores=args.num_workers, variant=args.variant,
            ),
            args.report, "tech report",
        )
    if args.manifest:
        _save_manifest(campaign.manifest, args.manifest)
    return 0


def _tech_export(args) -> int:
    from repro.analysis.report import (
        TECH_DEFAULT_CAPS_W,
        TECH_DEFAULT_MIXES,
        tech_section,
    )
    from repro.tech import (
        CORE_TYPES,
        frontier,
        get_core_type,
        get_node,
        node_names,
    )

    nodes = tuple(args.nodes) if args.nodes else tuple(node_names())
    if args.format == "json":
        import json

        payload = {
            "variant": args.variant,
            "nodes": [
                get_node(node, args.variant).to_dict() for node in nodes
            ],
            "core_types": {
                name: {
                    "perf_scale": get_core_type(name).perf_scale,
                    "dynamic_scale": get_core_type(name).dynamic_scale,
                    "leakage_scale": get_core_type(name).leakage_scale,
                    "area_scale": get_core_type(name).area_scale,
                }
                for name in sorted(CORE_TYPES)
            },
            "frontier": frontier(
                nodes, TECH_DEFAULT_MIXES, TECH_DEFAULT_CAPS_W,
                variant=args.variant,
            ),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = tech_section(nodes=nodes, variant=args.variant)
    _write_or_print(text, args.output, "tech tables")
    return 0


#: Die sizes the ``power list`` / ``power export`` ladders price.
POWER_DIE_SIZES = (16, 64, 256)


def _power_list(args) -> int:
    from repro.analysis.report import power_ladder_rows
    from repro.power import DEFAULT_CAP_FRACTIONS

    sizes = tuple(args.num_workers) if args.num_workers else POWER_DIE_SIZES
    # Price every die before printing, so a bad size prints nothing.
    rows = power_ladder_rows(sizes)
    print(
        "default sweep caps are fractions of the estimated uncapped chip "
        "peak: " + " ".join(f"{f:g}" for f in DEFAULT_CAP_FRACTIONS)
    )
    print(format_table(rows))
    return 0


def _power_sweep(args) -> int:
    from repro.analysis.report import power_frontier_table, power_section
    from repro.power import default_caps_w, run_cap_sweep

    fault_plan = None
    if args.plan is not None:
        fault_plan = _load_fault_plan(args.plan)
    caps = tuple(args.caps) if args.caps else default_caps_w(args.num_workers)
    cap_studies, campaign = run_cap_sweep(
        args.app, caps_w=caps, scale=args.scale, seed=args.seed,
        num_workers=args.num_workers, fault_plan=fault_plan,
        jobs=args.jobs, cache=args.cache_dir, progress=_print_progress,
    )
    composed = ", composed with fault plan" if fault_plan is not None else ""
    print(
        f"{args.app}: uncapped baseline + {len(caps)} cap levels "
        f"({args.num_workers} cores{composed})"
    )
    print("\nPower-cap frontier (vfi2_winoc, loosest cap first):")
    print(format_table(power_frontier_table(cap_studies)))

    if args.report:
        print()
        _write_or_print(power_section(cap_studies), args.report, "power report")
    if args.manifest:
        _save_manifest(campaign.manifest, args.manifest)
    return 0


def _power_export(args) -> int:
    from repro.analysis.report import power_ladder_section
    from repro.power import DEFAULT_CAP_FRACTIONS

    sizes = tuple(args.num_workers) if args.num_workers else POWER_DIE_SIZES
    if args.format == "json":
        import json

        from repro.power import chip_peak_power_w, default_caps_w

        payload = {
            "cap_fractions": list(DEFAULT_CAP_FRACTIONS),
            "dies": [
                {
                    "num_workers": workers,
                    "estimated_peak_w": chip_peak_power_w(workers),
                    "default_caps_w": list(default_caps_w(workers)),
                }
                for workers in sizes
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = power_ladder_section(sizes)
    _write_or_print(text, args.output, "power ladders")
    return 0


def _cmd_topology(args) -> int:
    from repro.core.platforms import build_vfi_winoc
    from repro.noc.visualize import describe_topology, render_vf_map
    from repro.utils.rng import spawn_seed

    study = run_app_study(args.app, scale=args.scale, seed=args.seed)
    rate = (
        study.design.traffic * 8.0 / study.result(NVFI_MESH).total_time_s
    )
    platform = build_vfi_winoc(
        study.design,
        "vfi2",
        methodology=args.methodology,
        seed=spawn_seed(args.seed, args.app, "winoc"),
        traffic_rate_bps=rate,
    )
    print(describe_topology(platform.topology, list(platform.layout.node_cluster)))
    print()
    print("V/F floorplan (VFI 2):")
    print(render_vf_map(platform.layout, platform.vf_points))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # Bad arguments that argparse cannot vet (out-of-range scales,
        # non-square die sizes, unwritable output paths, failed campaign
        # units): one line on stderr, nonzero exit, no traceback.
        if isinstance(exc, OSError):
            message = str(exc)  # args[0] alone would be the bare errno
        else:
            message = exc.args[0] if exc.args else exc
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
