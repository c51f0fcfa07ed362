"""The record-at-a-time trace decoder, kept as the oracle of the column
codec (:func:`repro.core.serialization.trace_from_columns`).

It reads a :func:`repro.core.serialization.trace_to_dict` document one
record object at a time, as ``trace_from_dict`` did before every trace
went through the column table.
"""

from typing import Dict

from repro.core.serialization import _COST_FIELDS
from repro.mapreduce.tasks import Phase, TaskCost
from repro.mapreduce.trace import (
    IterationTrace,
    JobTrace,
    MergeStageTrace,
    PhaseTrace,
    TaskRecord,
)


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


def trace_from_rows(data: Dict) -> JobTrace:
    """Rebuild a :class:`JobTrace` from a ``trace_to_dict`` document."""
    return JobTrace(
        app_name=data["app_name"],
        num_workers=int(data["num_workers"]),
        iterations=[
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
            for it in data["iterations"]
        ],
        output_bytes=float(data["output_bytes"]),
    )
