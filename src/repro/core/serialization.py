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

Task records have one decoder, :func:`trace_from_columns`, which reads
a trace's column table (:func:`trace_columns`): the study cache stores
that table, and :func:`trace_from_dict` converts a ``trace_to_dict``
document to it first.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

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

_PHASES = {phase.value: phase for phase in Phase}


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


def _int_column(column) -> List[int]:
    """*column*, which must be a list of ints (``TypeError`` otherwise)."""
    if type(column) is not list or not set(map(type, column)) <= {int}:
        raise TypeError("expected a list of ints")
    return column


def trace_columns(data: Dict) -> Dict:
    """The column table of a :func:`trace_to_dict` document.

    The trace's scalars and iterations stay as they are, with every task
    list replaced by its length.  The task records themselves, in
    document order (per iteration: library init, map, reduce, then each
    merge stage), become one list per field under ``"tasks"``: ``cost``
    holds one five-float row per task, and each task's input bytes by
    worker are ``input_count`` consecutive entries of the flat
    ``input_worker`` (int ids, in the record's order) and
    ``input_bytes`` columns.  ``partner_worker`` is ``None`` where a
    record has none.
    """
    records: List[Dict] = []
    iterations = []
    for it in data["iterations"]:
        records.append(it["lib_init"])
        records.extend(it["map"])
        records.extend(it["reduce"])
        for stage in it["merge_stages"]:
            records.extend(stage["tasks"])
        iterations.append({
            "iteration": it["iteration"],
            "map": len(it["map"]),
            "reduce": len(it["reduce"]),
            "merge_stages": [
                {"stage_index": stage["stage_index"], "tasks": len(stage["tasks"])}
                for stage in it["merge_stages"]
            ],
        })
    counts: List[int] = []
    workers: List[int] = []
    nbytes: List[float] = []
    for record in records:
        inputs = record.get("input_bytes_by_worker", {})
        counts.append(len(inputs))
        workers.extend(map(int, inputs.keys()))
        nbytes.extend(map(float, inputs.values()))
    return {
        "app_name": data["app_name"],
        "num_workers": data["num_workers"],
        "output_bytes": data["output_bytes"],
        "iterations": iterations,
        "tasks": {
            "task_id": [int(record["task_id"]) for record in records],
            "phase": [record["phase"] for record in records],
            "home_worker": [int(record["home_worker"]) for record in records],
            "partner_worker": [
                record.get("partner_worker") for record in records
            ],
            "cost": [record["cost"] for record in records],
            "input_count": counts,
            "input_worker": workers,
            "input_bytes": nbytes,
        },
    }


def trace_from_columns(table: Dict) -> JobTrace:
    """Rebuild a :class:`JobTrace` from its :func:`trace_columns` table.

    ``cost`` and ``input_bytes`` are lists, or float arrays where the
    study cache stores them packed.  Raises ``KeyError``, ``TypeError``
    or ``ValueError`` for a table that does not describe one trace: an
    id, worker or count column that is not a list of ints, columns of
    unequal length, input counts that do not cover the flat input
    columns, task counts that do not cover the records, an unknown phase
    or a negative cost (``TaskCost`` rejects it).
    """
    tasks = table["tasks"]
    ids = _int_column(tasks["task_id"])
    count = len(ids)
    phases = [_PHASES[phase] for phase in tasks["phase"]]
    homes = _int_column(tasks["home_worker"])
    partners = tasks["partner_worker"]
    input_counts = _int_column(tasks["input_count"])
    workers = _int_column(tasks["input_worker"])
    costs = tasks["cost"]
    if isinstance(costs, np.ndarray):
        costs = costs.reshape(count, len(_COST_FIELDS)).tolist()
    nbytes = tasks["input_bytes"]
    if isinstance(nbytes, np.ndarray):
        nbytes = nbytes.reshape(len(workers)).tolist()
    if not (
        len(phases) == len(homes) == len(partners) == len(costs)
        == len(input_counts) == count
    ):
        raise ValueError("trace columns of unequal length")
    if (
        min(input_counts, default=0) < 0
        or sum(input_counts) != len(workers)
        or len(nbytes) != len(workers)
    ):
        raise ValueError("input counts do not cover the input columns")
    inputs = []
    start = 0
    for size in input_counts:
        end = start + size
        inputs.append(
            dict(zip(workers[start:end], nbytes[start:end])) if size else {}
        )
        start = end
    # TaskCost's fields are in _COST_FIELDS order.
    records = [
        TaskRecord(task_id, phase, TaskCost(*cost), home, by_worker, partner)
        for task_id, phase, cost, home, by_worker, partner in zip(
            ids, phases, costs, homes, inputs, partners
        )
    ]

    taken = 0

    def take(size: int) -> List[TaskRecord]:
        nonlocal taken
        if type(size) is not int or not 0 <= size <= count - taken:
            raise ValueError(f"task count {size!r} does not fit the columns")
        taken += size
        return records[taken - size:taken]

    iterations = []
    for it in table["iterations"]:
        lib_init = take(1)[0]
        map_tasks = take(it["map"])
        reduce_tasks = take(it["reduce"])
        stages = [
            MergeStageTrace(int(stage["stage_index"]), take(stage["tasks"]))
            for stage in it["merge_stages"]
        ]
        iterations.append(IterationTrace(
            iteration=int(it["iteration"]),
            lib_init=lib_init,
            map_phase=PhaseTrace(Phase.MAP, map_tasks),
            reduce_phase=PhaseTrace(Phase.REDUCE, reduce_tasks),
            merge_stages=stages,
        ))
    if taken != count:
        raise ValueError(f"{count - taken} task records belong to no iteration")
    return JobTrace(
        app_name=table["app_name"],
        num_workers=int(table["num_workers"]),
        iterations=iterations,
        output_bytes=float(table["output_bytes"]),
    )


def trace_from_dict(data: Dict) -> JobTrace:
    """Rebuild a :class:`JobTrace` from :func:`trace_to_dict` output."""
    return trace_from_columns(trace_columns(data))


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


def study_from_dict(data: Dict, trace: Optional[JobTrace] = None) -> AppStudy:
    """Rebuild an :class:`AppStudy` from :func:`study_to_dict` output.

    *trace*, when given, is the study's trace already decoded, and
    ``data["trace"]`` is not read: the study cache stores the trace as
    its :func:`trace_columns` table and decodes that itself.
    """
    app_info = data["app"]
    return AppStudy(
        app=create_app(
            app_info["name"],
            scale=float(app_info["scale"]),
            seed=int(app_info["seed"]),
        ),
        trace=trace_from_dict(data["trace"]) if trace is None else trace,
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
