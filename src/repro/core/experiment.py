"""End-to-end experiment orchestration.

:func:`run_app_study` takes one benchmark application through the entire
paper pipeline:

1. run the app functionally -> verified result + calibrated trace;
2. simulate the **NVFI mesh** baseline -> utilization profile + traffic;
3. run the Fig. 3 design flow -> clustering, VFI 1, VFI 2, Eq. (3) policy;
4. simulate **VFI 1 mesh**, **VFI 2 mesh** and **VFI 2 WiNoC**
   (either placement methodology) on the same trace.

Studies are memoized per (app, scale, seed, ...) because several paper
figures slice the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.apps.base import BenchmarkApp
from repro.apps.registry import create_app
from repro.core.design_flow import VfiDesign, design_vfi, structural_bottleneck_workers
from repro.core.platforms import (
    build_nvfi_mesh,
    build_vfi_mesh,
    build_vfi_winoc,
    die_for,
    vfi_thread_mapping,
)
from repro.core.traffic import total_node_traffic
from repro.faults import FaultPlan, canonical_plan_json
from repro.mapreduce.trace import JobTrace
from repro.power.spec import PowerCapSpec, canonical_cap_json, normalize_cap
from repro.sim.config import SimulationParams
from repro.sim.stats import SimulationResult
from repro.sim.system import simulate
from repro.tech.spec import TechSpec, canonical_tech_json, normalize_tech
from repro.telemetry import get_tracer
from repro.utils.rng import spawn_seed

#: Canonical configuration keys, in presentation order.
NVFI_MESH = "nvfi_mesh"
VFI1_MESH = "vfi1_mesh"
VFI2_MESH = "vfi2_mesh"
VFI2_WINOC = "vfi2_winoc"


@dataclass
class AppStudy:
    """All simulation outputs for one application."""

    app: BenchmarkApp
    trace: JobTrace
    design: VfiDesign
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.app.profile.label

    def result(self, config: str) -> SimulationResult:
        if config not in self.results:
            raise KeyError(
                f"config {config!r} not simulated; have {sorted(self.results)}"
            )
        return self.results[config]

    def normalized_time(self, config: str, baseline: str = NVFI_MESH) -> float:
        """Execution time relative to the NVFI mesh (paper Figs. 4a, 7)."""
        return (
            self.result(config).total_time_s / self.result(baseline).total_time_s
        )

    def normalized_edp(self, config: str, baseline: str = NVFI_MESH) -> float:
        """Full-system EDP relative to the NVFI mesh (Figs. 4b, 8)."""
        return self.result(config).edp / self.result(baseline).edp

    def phase_share(self, config: str) -> Dict[str, float]:
        """Wall-time share per phase for one configuration."""
        result = self.result(config)
        breakdown = result.phase_breakdown()
        return {
            str(phase): duration / result.total_time_s
            for phase, duration in breakdown.items()
        }


_STUDY_CACHE: Dict[Tuple, AppStudy] = {}


def _study_key(
    app_name: str,
    scale: float,
    seed: int,
    num_workers: int,
    winoc_methodology: str,
    include_vfi1: bool,
    fault_plan: Optional[FaultPlan],
    tech: Optional[TechSpec],
    power_cap: Optional[PowerCapSpec],
) -> Tuple:
    """A study's memo key: its arguments, each axis as canonical JSON.

    An empty fault plan, the default technology and the unbounded cap
    all key as ``None``, so every spelling of one study shares one entry.
    """
    return (
        app_name, scale, seed, num_workers, winoc_methodology, include_vfi1,
        canonical_plan_json(fault_plan),
        canonical_tech_json(tech),
        canonical_cap_json(power_cap),
    )


def run_app_study(
    app_name: str,
    scale: float = 1.0,
    seed: int = 7,
    num_workers: int = 64,
    winoc_methodology: str = "max_wireless",
    include_vfi1: bool = True,
    use_cache: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    tech: Optional[TechSpec] = None,
    power_cap: Optional[PowerCapSpec] = None,
) -> AppStudy:
    """Run the full paper pipeline for one application (memoized).

    When a *fault_plan* is given, every stored configuration is simulated
    under it (the same plan stresses all four systems), while the design
    flow still consumes a clean NVFI characterization: V/F islands are a
    design-time decision, faults are a runtime condition.

    *tech* selects a technology configuration (node, scaling variant,
    per-island core mix; see :class:`repro.tech.TechSpec`).  ``None``
    is the paper's 65 nm homogeneous out-of-order default,
    ``TechSpec()``, which derives the paper platform bit for bit.

    *power_cap* is a runtime power budget enforced by the cap governor
    in every stored configuration; like faults, it is a runtime
    condition, so the design flow still sees the clean NVFI
    characterization.  The unbounded spec normalizes to ``None``.
    """
    key = _study_key(
        app_name, scale, seed, num_workers, winoc_methodology, include_vfi1,
        fault_plan, tech, power_cap,
    )
    if use_cache and key in _STUDY_CACHE:
        return _STUDY_CACHE[key]

    tech = normalize_tech(tech)
    power_cap = normalize_cap(power_cap)
    sim_params = SimulationParams(fault_plan=fault_plan, power_cap=power_cap)
    tracer = get_tracer()
    app = create_app(app_name, scale=scale, seed=seed)
    locality = app.profile.l2_locality
    with tracer.wall_span(
        "study.app_run", cat="study", pid="pipeline", app=app_name, seed=seed,
    ):
        trace = app.run(num_workers=num_workers)
    geometry = die_for(num_workers)

    # 1. NVFI-mesh characterization (always fault-free: it feeds the
    #    design flow).  With a fault plan, a second, degraded NVFI run is
    #    what gets stored and compared.
    nvfi = build_nvfi_mesh(geometry, tech=tech)
    with tracer.wall_span(
        "study.sim_nvfi", cat="study", pid="pipeline", app=app_name,
    ):
        nvfi_result = simulate(nvfi, trace, locality=locality)

    # 2. Design flow (Fig. 3) from the measured profile.
    traffic = total_node_traffic(trace, locality)
    with tracer.wall_span(
        "study.design", cat="study", pid="pipeline", app=app_name,
    ):
        design = design_vfi(
            utilization=nvfi_result.utilization,
            traffic=traffic,
            num_islands=geometry.num_islands,
            seed=spawn_seed(seed, app_name, "clustering"),
            structural_workers=structural_bottleneck_workers(trace),
            ladder=tech.ladder(),
        )

    results: Dict[str, SimulationResult] = {}
    # An empty plan is falsy, and the simulator runs it as no plan.
    if not fault_plan and power_cap is None:
        results[NVFI_MESH] = nvfi_result
    else:
        with tracer.wall_span(
            "study.sim_nvfi_faulted", cat="study", pid="pipeline", app=app_name,
        ):
            results[NVFI_MESH] = simulate(
                nvfi, trace, locality=locality, params=sim_params
            )

    # 3. VFI mesh systems (Eq. 3 stealing active).  VFI 1 and VFI 2 are
    #    one mesh at two V/F assignments: one communication-aware mapping
    #    serves both.
    with tracer.wall_span(
        "study.mapping", cat="study", pid="pipeline", app=app_name,
    ):
        mapping = vfi_thread_mapping(
            design, geometry.layout(), seed=spawn_seed(seed, app_name, "mapping")
        )
    if include_vfi1:
        vfi1_platform = build_vfi_mesh(
            design, "vfi1", geometry=geometry, mapping=mapping, tech=tech
        )
        with tracer.wall_span(
            "study.sim_vfi1_mesh", cat="study", pid="pipeline", app=app_name,
        ):
            results[VFI1_MESH] = simulate(
                vfi1_platform,
                trace,
                locality=locality,
                stealing_policy=design.stealing_policy("vfi1"),
                params=sim_params,
            )
    vfi2_platform = build_vfi_mesh(
        design, "vfi2", geometry=geometry, mapping=mapping, tech=tech
    )
    with tracer.wall_span(
        "study.sim_vfi2_mesh", cat="study", pid="pipeline", app=app_name,
    ):
        results[VFI2_MESH] = simulate(
            vfi2_platform,
            trace,
            locality=locality,
            stealing_policy=design.stealing_policy("vfi2"),
            params=sim_params,
        )

    # 4. VFI WiNoC (wireless routing calibrated to the offered load).
    rate_bps = traffic * 8.0 / nvfi_result.total_time_s
    with tracer.wall_span(
        "study.platform_winoc", cat="study", pid="pipeline", app=app_name,
    ):
        winoc_platform = build_vfi_winoc(
            design,
            "vfi2",
            methodology=winoc_methodology,
            geometry=geometry,
            seed=spawn_seed(seed, app_name, "winoc"),
            traffic_rate_bps=rate_bps,
            tech=tech,
        )
    with tracer.wall_span(
        "study.sim_vfi2_winoc", cat="study", pid="pipeline", app=app_name,
    ):
        results[VFI2_WINOC] = simulate(
            winoc_platform,
            trace,
            locality=locality,
            stealing_policy=design.stealing_policy("vfi2"),
            params=sim_params,
        )

    study = AppStudy(app=app, trace=trace, design=design, results=results)
    if use_cache:
        _STUDY_CACHE[key] = study
    return study


def clear_study_cache() -> None:
    _STUDY_CACHE.clear()


def store_study(
    study: AppStudy,
    app_name: str,
    scale: float = 1.0,
    seed: int = 7,
    num_workers: int = 64,
    winoc_methodology: str = "max_wireless",
    include_vfi1: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    tech: Optional[TechSpec] = None,
    power_cap: Optional[PowerCapSpec] = None,
) -> None:
    """Pre-populate the in-process memo with an externally obtained study.

    The orchestrator (:mod:`repro.orchestrator`) registers studies it
    resolved from worker processes or from the on-disk cache, so later
    direct :func:`run_app_study` calls with the same arguments (e.g. the
    Fig. 6 placement comparison) reuse them instead of re-simulating.
    """
    key = _study_key(
        app_name, scale, seed, num_workers, winoc_methodology, include_vfi1,
        fault_plan, tech, power_cap,
    )
    _STUDY_CACHE[key] = study


def min_hop_result(study: AppStudy, app_name: str, seed: int) -> SimulationResult:
    """The study's VFI 2 WiNoC under the min-hop-count methodology.

    Builds the communication-aware mapping + annealed WI placement on
    the study's design, calibrated to the same offered load as its
    stored max-wireless system, and simulates the same trace -- the
    other side of the paper's Sec. 6 placement comparison (Fig. 6).
    *app_name* and *seed* are the study's, as passed to
    :func:`run_app_study`.
    """
    rate = study.design.traffic * 8.0 / study.result(NVFI_MESH).total_time_s
    platform = build_vfi_winoc(
        study.design,
        "vfi2",
        methodology="min_hop",
        geometry=die_for(study.trace.num_workers),
        seed=spawn_seed(seed, app_name, "winoc"),
        traffic_rate_bps=rate,
    )
    return simulate(
        platform,
        study.trace,
        locality=study.app.profile.l2_locality,
        stealing_policy=study.design.stealing_policy("vfi2"),
    )


def select_winoc_methodology(
    app_name: str,
    scale: float = 1.0,
    seed: int = 7,
    num_workers: int = 64,
) -> str:
    """Pick the better wireless methodology for an app (paper Sec. 6).

    "We will choose between the minimized hop-count and maximized
    wireless utilization wireless placement methodologies depending on
    their achievable performances" -- this runs both VFI-WiNoC variants
    on the app's trace and returns the name of the one with the lower
    network EDP.
    """
    base = run_app_study(
        app_name, scale=scale, seed=seed, num_workers=num_workers,
        winoc_methodology="max_wireless",
    )
    max_wireless_edp = base.result(VFI2_WINOC).network_edp
    if max_wireless_edp <= min_hop_result(base, app_name, seed).network_edp:
        return "max_wireless"
    return "min_hop"
