"""Markdown report generation.

:func:`generate_report` renders the six application studies as a
complete paper-vs-measured markdown report -- the programmatic
counterpart of ``EXPERIMENTS.md`` -- suitable for CI artifacts or for
checking a modified configuration against the paper's shapes.

The sections beyond the paper are public functions of their own:
:func:`degradation_section`, :func:`cluster_section`,
:func:`tech_section`, :func:`power_section` and
:func:`power_ladder_section`.  A caller that has their inputs appends
them to the report, e.g.
``generate_report(studies, scale, seed) + "\n" + cluster_section(runs)``.
"""

from __future__ import annotations

import io
from typing import Mapping, Optional

from repro.analysis.figures import (
    ALL_APPS,
    average_edp_savings,
    figure2_utilization,
    figure4_vfi1_vs_vfi2,
    figure5_bottleneck_utilization,
    figure7_phase_times,
    figure8_full_system_edp,
)
from repro.analysis.tables import table1_datasets, table2_vf_assignments
from repro.core.experiment import AppStudy, NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC


def _md_table(rows, columns=None) -> str:
    """Render dict rows as a markdown table; the columns default to the
    first row's keys, as :func:`repro.analysis.tables.format_table`."""
    columns = list(columns) if columns else list(rows[0].keys())
    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = "\n".join(
        "| " + " | ".join(str(row.get(c, "")) for c in columns) + " |"
        for row in rows
    )
    return f"{header}\n{rule}\n{body}"


def degradation_rows(clean: AppStudy, faulted: AppStudy) -> list:
    """Per-configuration degradation of *faulted* relative to *clean*.

    Both studies must come from the same (app, scale, seed, workers)
    pipeline -- only the fault plan may differ.  Configurations present
    in both are compared; each row quantifies makespan inflation, energy
    delta, EDP inflation and the resilience work the run performed.
    """
    rows = []
    for config in (NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC):
        if config not in clean.results or config not in faulted.results:
            continue
        base = clean.result(config)
        hurt = faulted.result(config)
        impact = hurt.faults
        row = {
            "config": config,
            "makespan x": f"{hurt.total_time_s / base.total_time_s:.3f}",
            "energy %": f"{(hurt.total_energy_j / base.total_energy_j - 1) * 100:+.1f}",
            "EDP x": f"{hurt.edp / base.edp:.3f}",
            "re-executed": 0,
            "substituted": 0,
            "lost busy (ms)": "0.0",
            "events": "0/0 skipped",
        }
        if impact is not None:
            row["re-executed"] = impact.reexecuted_tasks
            row["substituted"] = impact.substituted_tasks
            row["lost busy (ms)"] = f"{impact.lost_busy_s * 1e3:.1f}"
            row["events"] = (
                f"{len(impact.events_applied)}/{impact.events_skipped} skipped"
            )
        rows.append(row)
    return rows


def degradation_section(
    clean_studies: Mapping[str, AppStudy],
    faulted_studies: Mapping[str, AppStudy],
) -> str:
    """Markdown "fault degradation" section comparing two study sets.

    *clean_studies* and *faulted_studies* map app names to studies run
    without and with a fault plan (the orchestrator's ``fault_plans``
    axis produces exactly this pairing).  Apps present in both are
    reported; the section states what broke (from the first faulted
    result's impact record) and tabulates the damage per configuration.
    """
    out = io.StringIO()
    write = out.write
    write("## Fault degradation\n\n")
    wrote_any = False
    for name, faulted in faulted_studies.items():
        if name not in clean_studies:
            continue
        clean = clean_studies[name]
        rows = degradation_rows(clean, faulted)
        if not rows:
            continue
        wrote_any = True
        impact = next(
            (r.faults for r in faulted.results.values() if r.faults is not None),
            None,
        )
        write(f"### {faulted.label}\n\n")
        if impact is not None:
            notes = []
            if impact.failed_workers:
                notes.append(f"failed cores {impact.failed_workers}")
            if impact.throttled_islands:
                notes.append(f"throttled islands {impact.throttled_islands}")
            if impact.bottleneck_reassignments:
                notes.append(
                    f"{impact.bottleneck_reassignments} bottleneck "
                    "reassignment(s)"
                )
            if notes:
                write("Injected: " + ", ".join(notes) + ".\n\n")
        write(_md_table(rows) + "\n\n")
    if not wrote_any:
        write("No app present in both the clean and the faulted study set.\n\n")
    return out.getvalue()


def cluster_rows(results) -> list:
    """One throughput/latency/energy row per cluster policy run.

    *results* is an iterable of
    :class:`repro.cluster.record.ClusterRunResult`, typically the same
    arrival trace served by every registered policy.
    """
    rows = []
    for result in results:
        report = result.report
        rows.append(
            {
                "policy": result.policy,
                "done/rej": f"{report.completed}/{report.rejected}",
                "retry/preempt": (
                    f"{report.retries}/{report.preemptions}"
                    if report.retries or report.preemptions
                    else "-"
                ),
                "throughput (/ks)": (
                    f"{report.throughput_jobs_per_s * 1e3:.2f}"
                ),
                "goodput (/ks)": (
                    f"{report.goodput_jobs_per_s * 1e3:.2f}"
                ),
                "latency p50/p95 (s)": (
                    f"{report.latency_p50_s:.1f}/{report.latency_p95_s:.1f}"
                ),
                "wait mean (s)": f"{report.queue_wait_mean_s:.1f}",
                "deadline hit": (
                    f"{report.deadlines_met}/{report.deadlined}"
                    if report.deadlined
                    else "n/a"
                ),
                "energy (kJ)": f"{report.total_energy_j / 1e3:.2f}",
                "fleet EDP (MJ·s)": f"{report.fleet_edp / 1e6:.3f}",
            }
        )
    return rows


def cluster_section(results) -> str:
    """Markdown "cluster service" section: per-policy SLO comparison.

    Groups the runs by arrival trace (several policies serving the same
    trace form one comparison table); states the workload and fleet each
    group ran on.
    """
    out = io.StringIO()
    write = out.write
    write("## Cluster service — policy comparison\n\n")
    results = list(results)
    if not results:
        write("No cluster runs recorded.\n\n")
        return out.getvalue()
    by_trace: dict = {}
    for result in results:
        by_trace.setdefault(result.trace.trace_key, []).append(result)
    for grouped in by_trace.values():
        first = grouped[0]
        trace = first.trace
        fleet = first.fleet
        write(
            f"### workload `{trace.name}` (seed {trace.seed}, "
            f"{len(trace)} jobs) on {len(fleet)} × "
            f"{fleet.chips[0].num_workers}-core chips\n\n"
        )
        write(
            f"Queue bound {first.max_queue_depth}; trace "
            f"`{trace.trace_key[:12]}`.\n\n"
        )
        write(_md_table(cluster_rows(grouped)) + "\n\n")
    return out.getvalue()


#: Default shape of the frontier sweep when none is given: the paper
#: node plus two shrinks, homogeneous OoO vs big.LITTLE, three caps.
TECH_DEFAULT_NODES = ("65nm", "45nm", "32nm")
TECH_DEFAULT_MIXES = ("ooo", "big_little")
TECH_DEFAULT_CAPS_W = (40.0, 80.0, 120.0)


def tech_node_rows(nodes, variant: str = "itrs") -> list:
    """One per-node row: rails, clock, per-core peak power, ladder span."""
    from repro.tech import core_peak_power_w, dvfs_ladder, get_core_type, get_node

    rows = []
    ooo = get_core_type("ooo")
    io = get_core_type("io")
    for node in nodes:
        resolved = get_node(node, variant)
        ladder = dvfs_ladder(resolved)
        rows.append(
            {
                "node": resolved.name,
                "variant": resolved.variant,
                "Vdd (V)": f"{resolved.vdd_nominal_v:.2f}",
                "Vth (V)": f"{resolved.vth_v:.2f}",
                "clock (GHz)": f"{resolved.frequency_nominal_hz / 1e9:.2f}",
                "OoO peak (W)": f"{core_peak_power_w(resolved, ooo):.2f}",
                "IO peak (W)": f"{core_peak_power_w(resolved, io):.2f}",
                "ladder (V)": f"{ladder[0].voltage_v:.2f}-{ladder[-1].voltage_v:.2f}",
                "area x": f"{resolved.area_scale:.2f}",
            }
        )
    return rows


def tech_frontier_rows(
    nodes=TECH_DEFAULT_NODES,
    mixes=TECH_DEFAULT_MIXES,
    caps_w=TECH_DEFAULT_CAPS_W,
    num_cores: int = 64,
    variant: str = "itrs",
) -> list:
    """Formatted dark-silicon frontier rows (shared by report and CLI)."""
    from repro.tech import frontier

    rows = []
    for raw in frontier(nodes, mixes, caps_w, num_cores=num_cores, variant=variant):
        rows.append(
            {
                "node": raw["node"],
                "variant": raw["variant"],
                "mix": raw["mix"],
                "cap (W)": f"{raw['cap_w']:g}",
                "chip peak (W)": f"{raw['chip_peak_w']:.1f}",
                "active cores": f"{raw['active_cores']}/{num_cores}",
                "dark %": f"{raw['dark_fraction'] * 100:.1f}",
                "throughput": f"{raw['throughput']:.2f}",
            }
        )
    return rows


def tech_study_rows(tech_studies: Mapping[str, AppStudy]) -> list:
    """One measured row per technology configuration of the same app.

    *tech_studies* maps a tech label (``"default (65nm)"`` or a
    :attr:`repro.tech.TechSpec.label`) to the study run under it.
    """
    rows = []
    for label, study in tech_studies.items():
        result = study.result(VFI2_WINOC)
        rows.append(
            {
                "tech": label,
                "config": VFI2_WINOC,
                "time (ms)": f"{result.total_time_s * 1e3:.1f}",
                "energy (J)": f"{result.total_energy_j:.1f}",
                "EDP": f"{result.edp:.3g}",
                "time vs NVFI": f"{study.normalized_time(VFI2_WINOC):.3f}",
                "EDP vs NVFI": f"{study.normalized_edp(VFI2_WINOC):.3f}",
            }
        )
    return rows


def tech_section(
    tech_studies: Optional[Mapping[str, AppStudy]] = None,
    nodes=TECH_DEFAULT_NODES,
    mixes=TECH_DEFAULT_MIXES,
    caps_w=TECH_DEFAULT_CAPS_W,
    num_cores: int = 64,
    variant: str = "itrs",
) -> str:
    """Markdown "technology frontier" section: nodes + dark silicon.

    Renders the per-node technology table and the dark-silicon frontier
    (active-core ceiling and throughput proxy per node x core mix x
    power cap).  When *tech_studies* maps tech labels to measured
    studies of one app (the ``repro tech frontier`` sweep produces
    exactly this), the section closes with the measured comparison.
    """
    out = io.StringIO()
    write = out.write
    write("## Technology frontier — nodes, core mixes and dark silicon\n\n")
    write(
        "Scale factors are relative to the paper's 65 nm out-of-order "
        "platform (1.00 V, 2.5 GHz, 1.9 W dynamic + 0.25 W leakage per "
        "core); the 65 nm row is the identity, so the default pipeline "
        "is untouched by the tech axis.\n\n"
    )
    write(_md_table(tech_node_rows(nodes, variant)) + "\n\n")
    write(
        f"Dark-silicon frontier on a {num_cores}-core die: the largest "
        "active set whose summed peak power fits the cap (cheapest cores "
        "first), and its aggregate throughput in units of one 65 nm OoO "
        "core at nominal clock.\n\n"
    )
    write(
        _md_table(tech_frontier_rows(nodes, mixes, caps_w, num_cores, variant))
        + "\n\n"
    )
    if variant == "itrs":
        write(
            "The same frontier under conservative (post-Dennard) scaling: "
            "leakage falls much more slowly with the node, so the dark "
            "fraction grows faster than the ITRS projection above.\n\n"
        )
        write(
            _md_table(tech_frontier_rows(nodes, mixes, caps_w, num_cores, "cons"))
            + "\n\n"
        )
    if tech_studies:
        first = next(iter(tech_studies.values()))
        write(f"### Measured sweep — {first.label}\n\n")
        write(_md_table(tech_study_rows(tech_studies)) + "\n\n")
    return out.getvalue()


def power_frontier_table(
    power_studies: Mapping[Optional[float], AppStudy],
    config: str = VFI2_WINOC,
) -> list:
    """Formatted cap-sweep frontier rows (shared by report and CLI).

    *power_studies* maps the chip cap in watts (``None`` = uncapped
    baseline) to the study run under it -- exactly what
    :func:`repro.power.run_cap_sweep` returns.
    """
    from repro.power import frontier_rows

    rows = []
    for raw in frontier_rows(power_studies, config=config):
        rows.append(
            {
                "cap (W)": (
                    "uncapped" if raw["cap_w"] is None else f"{raw['cap_w']:g}"
                ),
                "time (ms)": f"{raw['time_s'] * 1e3:.1f}",
                "throughput (/s)": f"{raw['throughput_per_s']:.4f}",
                "energy (J)": f"{raw['energy_j']:.1f}",
                "EDP": f"{raw['edp']:.3g}",
                "peak power (W)": (
                    "n/a"
                    if raw["peak_power_w"] is None
                    else f"{raw['peak_power_w']:.1f}"
                ),
                "throttle events": raw["throttle_events"],
                "throttled islands": (
                    ",".join(str(i) for i in raw["throttled_islands"]) or "-"
                ),
                "throttled (s)": f"{raw['throttled_s']:.2f}",
                "unmet": raw["unmet_boundaries"],
            }
        )
    return rows


def power_residency_rows(
    power_studies: Mapping[Optional[float], AppStudy],
    config: str = VFI2_WINOC,
) -> list:
    """Island-seconds of DVFS-ladder residency per cap level.

    One row per capped study; one column per ladder step observed in any
    run (step indices ascend toward nominal).
    """
    impacts = []
    for cap_w, study in power_studies.items():
        if cap_w is None:
            continue
        impacts.append((cap_w, study.result(config).power))
    impacts.sort(key=lambda item: -item[0])
    steps = sorted({
        step for _, impact in impacts if impact is not None
        for step in impact.residency_s
    })
    rows = []
    for cap_w, impact in impacts:
        row = {"cap (W)": f"{cap_w:g}"}
        for step in steps:
            seconds = 0.0 if impact is None else impact.residency_s.get(step, 0.0)
            row[f"step {step} (s)"] = f"{seconds:.2f}"
        rows.append(row)
    return rows


def power_section(
    power_studies: Mapping[Optional[float], AppStudy],
    config: str = VFI2_WINOC,
) -> str:
    """Markdown "power-cap frontier" section: measured sweep + residency.

    *power_studies* maps chip caps in watts (``None`` = uncapped) to
    studies of the same app/scale/seed -- the
    :func:`repro.power.run_cap_sweep` output.  The frontier table walks
    the caps loosest-first, so throughput should read non-increasing
    down the column; the residency table shows where the governor parked
    each capped run on the DVFS ladder.
    """
    out = io.StringIO()
    write = out.write
    write("## Power-cap frontier — throughput/energy/EDP under caps\n\n")
    if not power_studies:
        write("No cap sweep recorded.\n\n")
        return out.getvalue()
    first = next(iter(power_studies.values()))
    write(
        f"Cap sweep of **{first.label}** ({config}): the governor "
        "re-decides island V/F at every phase boundary, stepping the "
        "cheapest-throughput-loss island down the ladder until the "
        "estimated chip power fits the cap (master islands shielded), "
        "and re-raising when activity headroom returns.\n\n"
    )
    write(_md_table(power_frontier_table(power_studies, config)) + "\n\n")
    residency = power_residency_rows(power_studies, config)
    if residency:
        write(
            "DVFS-ladder residency per cap (island-seconds at each ladder "
            "step; higher steps are faster):\n\n"
        )
        write(_md_table(residency) + "\n\n")
    return out.getvalue()


def power_ladder_rows(sizes) -> list:
    """One row per die size: the estimated uncapped chip peak and the
    default sweep caps derived from it."""
    from repro.power import chip_peak_power_w, default_caps_w

    rows = []
    for workers in sizes:
        peak = chip_peak_power_w(workers)
        caps = default_caps_w(workers)
        rows.append(
            {
                "cores": workers,
                "est. peak (W)": f"{peak:.1f}",
                "default caps (W)": " ".join(f"{cap:g}" for cap in caps),
            }
        )
    return rows


def power_ladder_section(sizes) -> str:
    """Markdown "power-cap ladders" section: :func:`power_ladder_rows`
    under the default cap fractions."""
    from repro.power import DEFAULT_CAP_FRACTIONS

    return (
        "## Power-cap ladders — estimated peaks and default sweep caps\n\n"
        "Default sweep fractions of the estimated uncapped chip peak: "
        + ", ".join(f"{f:g}" for f in DEFAULT_CAP_FRACTIONS)
        + ".\n\n"
        + _md_table(power_ladder_rows(sizes))
        + "\n"
    )


def generate_report(
    studies: Mapping[str, AppStudy], scale: float = 1.0, seed: int = 7
) -> str:
    """Render the paper's evaluation of the six app *studies* (keyed by
    app name, e.g. from :func:`repro.analysis.figures.collect_studies`)
    as markdown; *scale* and *seed* label the header.
    """
    out = io.StringIO()
    write = out.write

    write("# Reproduction report\n\n")
    write(
        "Generated by `repro.analysis.report.generate_report` "
        f"(scale={scale}, seed={seed}).\n\n"
    )

    write("## Table 1 — applications and datasets\n\n")
    write("```\n" + table1_datasets() + "\n```\n\n")

    write("## Table 2 — V/F assignments\n\n")
    write("```\n" + table2_vf_assignments(studies.values()) + "\n```\n\n")

    write("## Figure 2 — core utilization profiles (NVFI mesh)\n\n")
    rows = []
    for label, values in figure2_utilization(studies).items():
        rows.append(
            {
                "app": label,
                "mean": f"{values.mean():.3f}",
                "max": f"{values.max():.3f}",
                "cv": f"{values.std() / values.mean():.3f}",
            }
        )
    write(_md_table(rows) + "\n\n")

    write("## Figure 4 — VFI 1 vs VFI 2 (normalized to NVFI mesh)\n\n")
    fig4 = figure4_vfi1_vs_vfi2(studies)
    rows = [
        {
            "app": label,
            "time VFI1": f"{fig4['execution_time'][label][0]:.3f}",
            "time VFI2": f"{fig4['execution_time'][label][1]:.3f}",
            "EDP VFI1": f"{fig4['edp'][label][0]:.3f}",
            "EDP VFI2": f"{fig4['edp'][label][1]:.3f}",
        }
        for label in fig4["execution_time"]
    ]
    write(_md_table(rows) + "\n\n")

    write("## Figure 5 — bottleneck vs average utilization\n\n")
    rows = [
        {
            "app": label,
            "average": f"{avg:.3f}",
            "bottleneck": f"{hot:.3f}",
            "ratio": f"{hot / avg:.2f}",
        }
        for label, (avg, hot) in figure5_bottleneck_utilization(studies).items()
    ]
    write(_md_table(rows) + "\n\n")

    write("## Figure 7 — per-phase execution time (normalized)\n\n")
    rows = []
    for app_label, configs in figure7_phase_times(studies).items():
        for config_label, phases in configs.items():
            rows.append(
                {
                    "app": app_label,
                    "config": config_label,
                    **{k: f"{v:.3f}" for k, v in phases.items()},
                    "total": f"{sum(phases.values()):.3f}",
                }
            )
    write(
        _md_table(
            rows,
            ["app", "config", "map", "reduce", "merge", "lib_init", "total"],
        )
        + "\n\n"
    )

    write("## Figure 8 — full-system EDP vs NVFI mesh\n\n")
    rows = [
        {"app": label, "VFI Mesh": f"{mesh:.3f}", "VFI WiNoC": f"{winoc:.3f}"}
        for label, (mesh, winoc) in figure8_full_system_edp(studies).items()
    ]
    write(_md_table(rows) + "\n\n")
    average, maximum = average_edp_savings(studies)
    write(
        f"WiNoC EDP savings vs NVFI mesh: **average {average * 100:.1f}%** "
        f"(paper: 33.7%), **max {maximum * 100:.1f}%** (paper: 66.2%).\n\n"
    )

    write("## Per-configuration summary\n\n")
    rows = []
    for name in ALL_APPS:
        study = studies[name]
        for config in (NVFI_MESH, VFI1_MESH, VFI2_MESH, VFI2_WINOC):
            if config not in study.results:
                continue
            result = study.result(config)
            rows.append(
                {
                    "app": study.label,
                    "config": config,
                    "time (ms)": f"{result.total_time_s * 1e3:.1f}",
                    "energy (J)": f"{result.total_energy_j:.1f}",
                    "EDP": f"{result.edp:.3g}",
                    "avg hops": f"{result.network.average_hops:.2f}",
                    "wireless %": f"{result.network.wireless_fraction * 100:.1f}",
                }
            )
    write(_md_table(rows) + "\n")
    return out.getvalue()
