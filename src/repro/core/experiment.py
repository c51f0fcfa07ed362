"""End-to-end experiment orchestration.

:func:`run_app_study` takes one benchmark application through the entire
paper pipeline:

1. run the app functionally -> verified result + calibrated trace;
2. simulate the **NVFI mesh** baseline -> utilization profile + traffic;
3. run the Fig. 3 design flow -> clustering, VFI 1, VFI 2, Eq. (3) policy;
4. simulate **VFI 1 mesh**, **VFI 2 mesh** and **VFI 2 WiNoC**
   (either placement methodology) on the same trace.

Studies are memoized because several paper figures slice the same
runs.  A study's one identity is its
:class:`~repro.orchestrator.spec.StudySpec`: it keys the process memo,
and the arguments of :func:`run_app_study` only build one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

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
from repro.faults import FaultPlan
from repro.mapreduce.trace import JobTrace
from repro.power.spec import PowerCapSpec
from repro.sim.config import SimulationParams
from repro.sim.stats import SimulationResult
from repro.sim.system import simulate
from repro.tech.spec import TechSpec
from repro.telemetry import get_tracer
from repro.utils.rng import spawn_seed

if TYPE_CHECKING:  # the orchestrator package imports this module
    from repro.orchestrator.spec import StudySpec

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


_STUDY_CACHE: Dict["StudySpec", AppStudy] = {}


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

    The arguments build one :class:`~repro.orchestrator.spec.StudySpec`,
    which canonicalizes and validates them (app aliases resolve to the
    app's name) and keys the process memo; ``use_cache=False`` runs the
    pipeline without reading or writing the memo.

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
    from repro.orchestrator.spec import StudySpec

    spec = StudySpec(
        app_name, scale, seed, num_workers, winoc_methodology, include_vfi1,
        fault_plan, tech, power_cap,
    )
    return study_for(spec) if use_cache else _run_pipeline(spec)


def study_for(spec: "StudySpec") -> AppStudy:
    """*spec*'s study from the process memo, running the pipeline on a miss."""
    study = _STUDY_CACHE.get(spec)
    if study is None:
        study = _STUDY_CACHE[spec] = _run_pipeline(spec)
    return study


def _run_pipeline(spec: "StudySpec") -> AppStudy:
    """One run of the paper pipeline for *spec*, outside the memo."""
    app_name, seed, num_workers = spec.app, spec.seed, spec.num_workers
    fault_plan, tech, power_cap = spec.plan(), spec.tech_spec(), spec.cap()
    sim_params = SimulationParams(fault_plan=fault_plan, power_cap=power_cap)
    tracer = get_tracer()
    app = create_app(app_name, scale=spec.scale, seed=seed)
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
    if fault_plan is None and power_cap is None:
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
    if spec.include_vfi1:
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
            methodology=spec.winoc_methodology,
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

    return AppStudy(app=app, trace=trace, design=design, results=results)


def clear_study_cache() -> None:
    _STUDY_CACHE.clear()


def store_study(spec: "StudySpec", study: AppStudy) -> None:
    """Pre-populate the in-process memo with an externally obtained study.

    The orchestrator (:mod:`repro.orchestrator`) registers every study a
    campaign resolves -- from worker processes or from the on-disk cache
    -- so later direct :func:`run_app_study` calls naming the same spec
    (e.g. the Fig. 6 placement comparison) reuse them instead of
    re-simulating.
    """
    _STUDY_CACHE[spec] = study


def min_hop_result(study: AppStudy) -> SimulationResult:
    """The study's VFI 2 WiNoC under the min-hop-count methodology.

    Builds the communication-aware mapping + annealed WI placement on
    the study's design, calibrated to the same offered load as its
    stored max-wireless system, and simulates the same trace -- the
    other side of the paper's Sec. 6 placement comparison (Fig. 6).
    The placement is seeded from the study's own app name and seed, as
    its max-wireless system was.
    """
    rate = study.design.traffic * 8.0 / study.result(NVFI_MESH).total_time_s
    app = study.app
    platform = build_vfi_winoc(
        study.design,
        "vfi2",
        methodology="min_hop",
        geometry=die_for(study.trace.num_workers),
        seed=spawn_seed(app.seed, app.profile.name, "winoc"),
        traffic_rate_bps=rate,
    )
    return simulate(
        platform,
        study.trace,
        locality=app.profile.l2_locality,
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
    if max_wireless_edp <= min_hop_result(base).network_edp:
        return "max_wireless"
    return "min_hop"
