"""Cap-sweep drivers: measured throughput/energy/EDP frontiers.

The sweep runs one app through the orchestrator at several chip-level
power caps (always including the uncapped baseline, which shares its
cache identity with every other campaign) and extracts the raw frontier
rows -- makespan, throughput, energy, EDP and the governor's
cap-enforcement accounting per cap level.  :mod:`repro.analysis.report`
formats these rows into the power-cap report section; the ``repro
power sweep`` CLI drives the same functions.

Default cap levels are fractions of the *estimated* uncapped chip peak
(:func:`chip_peak_power_w`), so the same sweep shape works across die
sizes and technology nodes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.power.spec import PowerCapSpec

#: Cap levels of the default sweep, as fractions of the estimated
#: uncapped chip peak: from barely binding down to deeply throttled.
DEFAULT_CAP_FRACTIONS = (0.9, 0.75, 0.6, 0.45)


def chip_peak_power_w(num_workers: int = 64, tech=None) -> float:
    """Estimated uncapped chip peak power (all cores busy at nominal).

    The die's islands priced at their node/core-type nominal
    (:func:`repro.tech.budget.chip_peak_power_w`; *tech* is a
    :class:`repro.tech.TechSpec`, ``None`` the paper's 65 nm
    homogeneous out-of-order default).
    """
    from repro.core.geometry import DieGeometry
    from repro.tech import budget
    from repro.tech.spec import normalize_tech

    tech = normalize_tech(tech)
    mix = tech.mix_for(DieGeometry.for_cores(num_workers).num_islands)
    return budget.chip_peak_power_w(tech.tech_node(), mix, num_workers)


def default_caps_w(
    num_workers: int = 64,
    tech=None,
    fractions: Sequence[float] = DEFAULT_CAP_FRACTIONS,
) -> Tuple[float, ...]:
    """Default sweep cap levels (watts), tightest last."""
    peak = chip_peak_power_w(num_workers, tech=tech)
    return tuple(round(peak * fraction, 1) for fraction in fractions)


def cap_sweep_specs(
    app: str,
    caps_w: Sequence[float],
    scale: float = 1.0,
    seed: int = 7,
    num_workers: int = 64,
    tech=None,
    fault_plan=None,
):
    """The campaign specs of a cap sweep: uncapped baseline + one unit
    per cap level, all sharing the other axes."""
    from repro.orchestrator.spec import expand_grid

    caps: List[Union[None, PowerCapSpec]] = [None]
    caps.extend(PowerCapSpec(chip_cap_w=float(cap)) for cap in caps_w)
    return expand_grid(
        [app],
        scales=[scale],
        seeds=[seed],
        num_workers=[num_workers],
        fault_plans=[fault_plan],
        tech=[tech],
        power_caps=caps,
    )


def run_cap_sweep(
    app: str,
    caps_w: Optional[Sequence[float]] = None,
    scale: float = 1.0,
    seed: int = 7,
    num_workers: int = 64,
    tech=None,
    fault_plan=None,
    jobs: int = 1,
    cache=None,
    progress=None,
):
    """Run a cap sweep through the orchestrator.

    Returns ``(cap_studies, campaign)`` where *cap_studies* maps the
    chip cap in watts (``None`` = uncapped baseline, first) to its
    :class:`repro.core.experiment.AppStudy`, in loosest-to-tightest
    order, and *campaign* is the orchestrator result (for manifests).
    """
    from repro.orchestrator.executor import run_campaign

    if caps_w is None:
        caps_w = default_caps_w(num_workers, tech=tech)
    caps_w = tuple(sorted((float(c) for c in caps_w), reverse=True))
    specs = cap_sweep_specs(
        app, caps_w, scale=scale, seed=seed, num_workers=num_workers,
        tech=tech, fault_plan=fault_plan,
    )
    campaign = run_campaign(specs, jobs=jobs, cache=cache, progress=progress)
    campaign.raise_failures()
    cap_studies: Dict[Optional[float], object] = {}
    for spec in specs:
        cap = spec.cap()
        cap_studies[None if cap is None else cap.chip_cap_w] = (
            campaign.study(spec)
        )
    return cap_studies, campaign


def frontier_rows(
    cap_studies: Mapping[Optional[float], object],
    config: str = "vfi2_winoc",
) -> List[Dict]:
    """Raw frontier rows, loosest cap first (uncapped leading).

    Each row carries the measured makespan/throughput/energy/EDP of
    *config* plus the governor's accounting (throttle events, residency
    below nominal, unmet boundaries, observed peak power).  Formatting
    lives in :func:`repro.analysis.report.power_section`.
    """
    def order(item):
        cap = item[0]
        return (0, 0.0) if cap is None else (1, -cap)

    rows = []
    for cap_w, study in sorted(cap_studies.items(), key=order):
        result = study.result(config)
        impact = result.power
        row = {
            "cap_w": cap_w,
            "config": config,
            "time_s": result.total_time_s,
            "throughput_per_s": 1.0 / result.total_time_s,
            "energy_j": result.total_energy_j,
            "edp": result.edp,
            "throttle_events": 0,
            "throttled_islands": [],
            "throttled_s": 0.0,
            "unmet_boundaries": 0,
            "peak_power_w": None,
        }
        if impact is not None:
            row.update(
                throttle_events=len(impact.throttle_events),
                throttled_islands=list(impact.throttled_islands),
                throttled_s=impact.throttled_s,
                unmet_boundaries=impact.unmet_boundaries,
                peak_power_w=impact.peak_power_w,
            )
        rows.append(row)
    return rows
