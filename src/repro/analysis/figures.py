"""Figure-series builders: one function per paper figure.

Every builder consumes :class:`repro.core.experiment.AppStudy` objects
(memoized by :func:`repro.core.experiment.run_app_study`) and returns
plain data -- the same series the paper plots -- so benchmarks can both
assert on the *shape* and print the numbers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.core.experiment import (
    NVFI_MESH,
    VFI1_MESH,
    VFI2_MESH,
    VFI2_WINOC,
    AppStudy,
    min_hop_result,
    run_app_study,
)
from repro.mapreduce.tasks import Phase

#: Paper Fig. 2 order.
FIG2_APPS = ("kmeans", "pca", "matrix_multiply", "histogram")
#: Paper Fig. 4/5 apps (the three needing V/F reassignment).
FIG4_APPS = ("pca", "histogram", "matrix_multiply")
#: Paper Fig. 7/8 present all six.
ALL_APPS = (
    "histogram",
    "linear_regression",
    "wordcount",
    "pca",
    "kmeans",
    "matrix_multiply",
)


def figure2_utilization(
    studies: Mapping[str, AppStudy]
) -> Dict[str, np.ndarray]:
    """Fig. 2: per-core utilization, sorted highest to lowest, per app."""
    series = {}
    for name in FIG2_APPS:
        study = studies[name]
        utilization = study.result(NVFI_MESH).utilization
        series[study.label] = np.sort(utilization)[::-1]
    return series


def figure4_vfi1_vs_vfi2(
    studies: Mapping[str, AppStudy]
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Fig. 4: normalized execution time (a) and EDP (b), VFI1 vs VFI2."""
    out: Dict[str, Dict[str, Tuple[float, float]]] = {
        "execution_time": {},
        "edp": {},
    }
    for name in FIG4_APPS:
        study = studies[name]
        out["execution_time"][study.label] = (
            study.normalized_time(VFI1_MESH),
            study.normalized_time(VFI2_MESH),
        )
        out["edp"][study.label] = (
            study.normalized_edp(VFI1_MESH),
            study.normalized_edp(VFI2_MESH),
        )
    return out


def figure5_bottleneck_utilization(
    studies: Mapping[str, AppStudy]
) -> Dict[str, Tuple[float, float]]:
    """Fig. 5: (average, bottleneck) core utilization per app."""
    out = {}
    for name in FIG4_APPS:
        study = studies[name]
        report = study.design.bottleneck
        out[study.label] = (
            report.average_utilization,
            report.bottleneck_utilization,
        )
    return out


def figure6_placement_comparison(
    app_names: Iterable[str] = ALL_APPS,
    scale: float = 1.0,
    seed: int = 7,
) -> Dict[str, float]:
    """Fig. 6: network EDP of max-wireless-utilization relative to
    min-hop-count placement (values < 1 mean max-wireless wins)."""
    out = {}
    for name in app_names:
        study = run_app_study(name, scale=scale, seed=seed)
        min_hop = min_hop_result(study)
        out[study.label] = (
            study.result(VFI2_WINOC).network_edp / min_hop.network_edp
        )
    return out


def figure7_phase_times(
    studies: Mapping[str, AppStudy]
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 7: per-phase execution time, normalized to the app's NVFI
    total, for VFI mesh and VFI WiNoC.

    Returns ``{app_label: {config_label: {phase: normalized_time}}}``.
    """
    phase_order = (Phase.MAP, Phase.REDUCE, Phase.MERGE, Phase.LIB_INIT)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in ALL_APPS:
        study = studies[name]
        baseline = study.result(NVFI_MESH).total_time_s
        per_config = {}
        for config, label in ((VFI2_MESH, "VFI Mesh"), (VFI2_WINOC, "VFI WiNoC")):
            result = study.result(config)
            per_config[label] = {
                str(phase): result.phase_duration_s(phase) / baseline
                for phase in phase_order
            }
        out[study.label] = per_config
    return out


def figure8_full_system_edp(
    studies: Mapping[str, AppStudy]
) -> Dict[str, Tuple[float, float]]:
    """Fig. 8: full-system EDP of (VFI Mesh, VFI WiNoC) relative to NVFI
    mesh, per app."""
    out = {}
    for name in ALL_APPS:
        study = studies[name]
        out[study.label] = (
            study.normalized_edp(VFI2_MESH),
            study.normalized_edp(VFI2_WINOC),
        )
    return out


def collect_studies(
    app_names: Iterable[str] = ALL_APPS,
    scale: float = 1.0,
    seed: int = 7,
    jobs: int = 1,
    cache_dir=None,
    progress=None,
) -> Dict[str, AppStudy]:
    """Run (or fetch cached) studies for *app_names*.

    With the defaults this is the historical serial, process-memoized
    path.  ``jobs > 1`` fans the apps out across worker processes and
    ``cache_dir`` persists each study to the orchestrator's on-disk
    cache, so repeated report/benchmark runs resolve instantly; both go
    through :func:`repro.orchestrator.run_campaign`.
    """
    from repro.orchestrator import StudySpec, run_campaign

    specs = {
        name: StudySpec(app=name, scale=scale, seed=seed)
        for name in app_names
    }
    campaign = run_campaign(
        specs.values(), jobs=jobs, cache=cache_dir, progress=progress
    )
    campaign.raise_failures()
    return {name: campaign.study(spec) for name, spec in specs.items()}


def average_edp_savings(studies: Mapping[str, AppStudy]) -> Tuple[float, float]:
    """(average, maximum) WiNoC EDP savings vs NVFI mesh (paper: 33.7%,
    66.2%)."""
    savings = [
        1.0 - studies[name].normalized_edp(VFI2_WINOC) for name in ALL_APPS
    ]
    return float(np.mean(savings)), float(np.max(savings))
