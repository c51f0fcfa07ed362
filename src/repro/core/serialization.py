"""JSON serialization of designs, traces, results and whole studies.

Reproducibility artifacts: a :class:`repro.core.design_flow.VfiDesign`
can be saved and reloaded (the exact clustering, both V/F systems, the
bottleneck report and the characterization inputs), a study's key
metrics can be exported as one JSON document for dashboards or archival,
and a complete :class:`repro.core.experiment.AppStudy` -- trace,
design and every simulated configuration -- round-trips through plain
JSON.  The full-study round trip is what the orchestrator's on-disk
result cache (:mod:`repro.orchestrator.cache`) persists, so every value
is explicitly cast to a builtin type: numpy scalars (``np.float64``,
``np.int64``) are not JSON-serializable and must never leak into the
documents.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

import numpy as np

from repro.apps.registry import create_app
from repro.core.design_flow import VfiDesign
from repro.core.experiment import AppStudy
from repro.energy.metrics import EnergyBreakdown
from repro.faults.impact import FaultImpact
from repro.mapreduce.tasks import Phase, TaskCost
from repro.mapreduce.trace import (
    IterationTrace,
    JobTrace,
    MergeStageTrace,
    PhaseTrace,
    TaskRecord,
)
from repro.power.impact import CapImpact
from repro.sim.stats import NetworkStats, PhaseStats, SimulationResult
from repro.vfi.bottleneck import BottleneckReport
from repro.vfi.clustering import ClusteringResult
from repro.vfi.islands import VfPoint
from repro.vfi.vf_assign import VfAssignment


def _vf_to_dict(assignment: VfAssignment) -> Dict:
    return {
        "points": [
            {"frequency_hz": float(p.frequency_hz), "voltage_v": float(p.voltage_v)}
            for p in assignment.points
        ],
        "island_utilization": [float(u) for u in assignment.island_utilization],
        "reassigned_islands": [int(i) for i in assignment.reassigned_islands],
    }


def _vf_from_dict(data: Dict) -> VfAssignment:
    return VfAssignment(
        points=tuple(
            VfPoint(entry["frequency_hz"], entry["voltage_v"])
            for entry in data["points"]
        ),
        island_utilization=tuple(data["island_utilization"]),
        reassigned_islands=tuple(data["reassigned_islands"]),
    )


def design_to_dict(design: VfiDesign) -> Dict:
    """Serialize a design to plain JSON-compatible data."""
    return {
        "num_islands": int(design.num_islands),
        "clustering": {
            "assignment": [int(c) for c in design.clustering.assignment],
            "cost": float(design.clustering.cost),
            "method": str(design.clustering.method),
            "evaluations": int(design.clustering.evaluations),
        },
        "vfi1": _vf_to_dict(design.vfi1),
        "vfi2": _vf_to_dict(design.vfi2),
        "bottleneck": {
            "bottleneck_workers": [
                int(w) for w in design.bottleneck.bottleneck_workers
            ],
            "average_utilization": float(design.bottleneck.average_utilization),
            "bottleneck_utilization": float(
                design.bottleneck.bottleneck_utilization
            ),
            "body_cv": float(design.bottleneck.body_cv),
        },
        # tolist() recursively converts to builtin floats (traffic is 2-D).
        "utilization": np.asarray(design.utilization, dtype=float).tolist(),
        "traffic": np.asarray(design.traffic, dtype=float).tolist(),
    }


def design_from_dict(data: Dict) -> VfiDesign:
    """Rebuild a design from :func:`design_to_dict` output."""
    return VfiDesign(
        num_islands=int(data["num_islands"]),
        clustering=ClusteringResult(
            assignment=tuple(data["clustering"]["assignment"]),
            cost=float(data["clustering"]["cost"]),
            method=data["clustering"]["method"],
            evaluations=int(data["clustering"]["evaluations"]),
        ),
        vfi1=_vf_from_dict(data["vfi1"]),
        vfi2=_vf_from_dict(data["vfi2"]),
        bottleneck=BottleneckReport(
            bottleneck_workers=list(data["bottleneck"]["bottleneck_workers"]),
            average_utilization=float(data["bottleneck"]["average_utilization"]),
            bottleneck_utilization=float(
                data["bottleneck"]["bottleneck_utilization"]
            ),
            body_cv=float(data["bottleneck"]["body_cv"]),
        ),
        utilization=np.asarray(data["utilization"], dtype=float),
        traffic=np.asarray(data["traffic"], dtype=float),
    )


def save_design(design: VfiDesign, path: str) -> None:
    """Write a design to a JSON file."""
    with open(path, "w") as handle:
        json.dump(design_to_dict(design), handle, indent=1)


def load_design(path: str) -> VfiDesign:
    """Read a design back from :func:`save_design` output."""
    with open(path) as handle:
        return design_from_dict(json.load(handle))


# ---------------------------------------------------------------------- #
# traces
# ---------------------------------------------------------------------- #

#: TaskCost field order used by the compact list encoding below.
_COST_FIELDS = (
    "instructions",
    "l2_accesses",
    "memory_accesses",
    "kv_bytes_in",
    "kv_bytes_out",
)


def _record_to_dict(record: TaskRecord) -> Dict:
    out = {
        "task_id": int(record.task_id),
        "phase": record.phase.value,
        "cost": [float(getattr(record.cost, name)) for name in _COST_FIELDS],
        "home_worker": int(record.home_worker),
    }
    if record.input_bytes_by_worker:
        out["input_bytes_by_worker"] = {
            str(int(worker)): float(nbytes)
            for worker, nbytes in record.input_bytes_by_worker.items()
        }
    if record.partner_worker is not None:
        out["partner_worker"] = int(record.partner_worker)
    return out


def _record_from_dict(data: Dict) -> TaskRecord:
    return TaskRecord(
        task_id=int(data["task_id"]),
        phase=Phase(data["phase"]),
        cost=TaskCost(**dict(zip(_COST_FIELDS, data["cost"]))),
        home_worker=int(data["home_worker"]),
        input_bytes_by_worker={
            int(worker): float(nbytes)
            for worker, nbytes in data.get("input_bytes_by_worker", {}).items()
        },
        partner_worker=data.get("partner_worker"),
    )


def trace_to_dict(trace: JobTrace) -> Dict:
    """Serialize a :class:`JobTrace` to plain JSON-compatible data."""
    return {
        "app_name": trace.app_name,
        "num_workers": int(trace.num_workers),
        "output_bytes": float(trace.output_bytes),
        "iterations": [
            {
                "iteration": int(it.iteration),
                "lib_init": _record_to_dict(it.lib_init),
                "map": [_record_to_dict(r) for r in it.map_phase.tasks],
                "reduce": [_record_to_dict(r) for r in it.reduce_phase.tasks],
                "merge_stages": [
                    {
                        "stage_index": int(stage.stage_index),
                        "tasks": [_record_to_dict(r) for r in stage.tasks],
                    }
                    for stage in it.merge_stages
                ],
            }
            for it in trace.iterations
        ],
    }


def trace_from_dict(data: Dict) -> JobTrace:
    """Rebuild a :class:`JobTrace` from :func:`trace_to_dict` output."""
    iterations = []
    for it in data["iterations"]:
        iterations.append(
            IterationTrace(
                iteration=int(it["iteration"]),
                lib_init=_record_from_dict(it["lib_init"]),
                map_phase=PhaseTrace(
                    Phase.MAP, [_record_from_dict(r) for r in it["map"]]
                ),
                reduce_phase=PhaseTrace(
                    Phase.REDUCE, [_record_from_dict(r) for r in it["reduce"]]
                ),
                merge_stages=[
                    MergeStageTrace(
                        stage_index=int(stage["stage_index"]),
                        tasks=[_record_from_dict(r) for r in stage["tasks"]],
                    )
                    for stage in it["merge_stages"]
                ],
            )
        )
    return JobTrace(
        app_name=data["app_name"],
        num_workers=int(data["num_workers"]),
        iterations=iterations,
        output_bytes=float(data["output_bytes"]),
    )


# ---------------------------------------------------------------------- #
# simulation results
# ---------------------------------------------------------------------- #


def result_to_dict(result: SimulationResult) -> Dict:
    """Serialize a :class:`SimulationResult` to JSON-compatible data.

    Fault-free results omit the ``faults`` key entirely, keeping their
    serialized form byte-identical to documents written before the fault
    subsystem existed (and to cache entries of no-fault runs); uncapped
    results omit the ``power`` key under the same rule.
    """
    out = {
        "app_name": result.app_name,
        "platform_name": result.platform_name,
        "total_time_s": float(result.total_time_s),
        "busy_s": [float(v) for v in result.busy_s],
        "committed_instructions": [
            float(v) for v in result.committed_instructions
        ],
        "worker_frequencies_hz": [
            float(v) for v in result.worker_frequencies_hz
        ],
        "issue_width": float(result.issue_width),
        "phases": [
            {
                "phase": p.phase.value,
                "iteration": int(p.iteration),
                "start_s": float(p.start_s),
                "end_s": float(p.end_s),
            }
            for p in result.phases
        ],
        "energy": {
            "core_dynamic_j": float(result.energy.core_dynamic_j),
            "core_static_j": float(result.energy.core_static_j),
            "noc_dynamic_j": float(result.energy.noc_dynamic_j),
            "noc_static_j": float(result.energy.noc_static_j),
        },
        "network": {
            "bits_moved": float(result.network.bits_moved),
            "average_hops": float(result.network.average_hops),
            "wireless_fraction": float(result.network.wireless_fraction),
            "dynamic_energy_j": float(result.network.dynamic_energy_j),
            "static_energy_j": float(result.network.static_energy_j),
        },
    }
    if result.faults is not None:
        out["faults"] = result.faults.to_dict()
    if result.power is not None:
        out["power"] = result.power.to_dict()
    return out


def result_from_dict(data: Dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`."""
    return SimulationResult(
        app_name=data["app_name"],
        platform_name=data["platform_name"],
        total_time_s=float(data["total_time_s"]),
        busy_s=np.asarray(data["busy_s"], dtype=float),
        committed_instructions=np.asarray(
            data["committed_instructions"], dtype=float
        ),
        worker_frequencies_hz=np.asarray(
            data["worker_frequencies_hz"], dtype=float
        ),
        issue_width=float(data["issue_width"]),
        phases=[
            PhaseStats(
                phase=Phase(p["phase"]),
                iteration=int(p["iteration"]),
                start_s=float(p["start_s"]),
                end_s=float(p["end_s"]),
            )
            for p in data["phases"]
        ],
        energy=EnergyBreakdown(**data["energy"]),
        network=NetworkStats(**data["network"]),
        faults=(
            FaultImpact.from_dict(data["faults"])
            if "faults" in data
            else None
        ),
        power=(
            CapImpact.from_dict(data["power"])
            if "power" in data
            else None
        ),
    )


# ---------------------------------------------------------------------- #
# whole studies
# ---------------------------------------------------------------------- #


def study_to_dict(study: AppStudy) -> Dict:
    """Serialize a complete :class:`AppStudy` to JSON-compatible data.

    The app itself is stored as its (name, scale, seed) construction
    recipe, while the trace, design and every simulated configuration
    are stored in full so nothing is re-simulated on load.  The recipe
    costs nothing on load: apps build their datasets on first use, so
    :func:`study_from_dict` generates no data, and a reader that only
    needs the stored results never pays for it.
    """
    return {
        "app": {
            "name": study.app.profile.name,
            "scale": float(study.app.scale),
            "seed": int(study.app.seed),
        },
        "trace": trace_to_dict(study.trace),
        "design": design_to_dict(study.design),
        "results": {
            config: result_to_dict(result)
            for config, result in study.results.items()
        },
    }


def study_from_dict(data: Dict) -> AppStudy:
    """Rebuild an :class:`AppStudy` from :func:`study_to_dict` output."""
    app_info = data["app"]
    return AppStudy(
        app=create_app(
            app_info["name"],
            scale=float(app_info["scale"]),
            seed=int(app_info["seed"]),
        ),
        trace=trace_from_dict(data["trace"]),
        design=design_from_dict(data["design"]),
        results={
            config: result_from_dict(entry)
            for config, entry in data["results"].items()
        },
    )


def save_study(study: AppStudy, path: str) -> None:
    """Write a full study to a JSON file."""
    with open(path, "w") as handle:
        json.dump(study_to_dict(study), handle)


def load_study(path: str) -> AppStudy:
    """Read a full study back from :func:`save_study` output."""
    with open(path) as handle:
        return study_from_dict(json.load(handle))


def study_summary_dict(study: AppStudy) -> Dict:
    """One JSON document summarizing a study's key metrics."""
    summary = {
        "app": study.app.profile.name,
        "label": study.label,
        "paper_dataset": study.app.profile.paper_dataset,
        "vfi1": study.design.vfi1.labels(),
        "vfi2": study.design.vfi2.labels(),
        "reassigned_islands": [
            int(i) for i in study.design.vfi2.reassigned_islands
        ],
        "configs": {},
    }
    for config, result in study.results.items():
        summary["configs"][config] = {
            "total_time_s": float(result.total_time_s),
            "total_energy_j": float(result.total_energy_j),
            "edp": float(result.edp),
            "network_edp": float(result.network_edp),
            "normalized_time": float(study.normalized_time(config)),
            "normalized_edp": float(study.normalized_edp(config)),
            "average_hops": float(result.network.average_hops),
            "wireless_fraction": float(result.network.wireless_fraction),
        }
    return summary


def save_study_summary(study: AppStudy, path: str) -> None:
    """Write :func:`study_summary_dict` to a JSON file."""
    with open(path, "w") as handle:
        json.dump(study_summary_dict(study), handle, indent=1)
