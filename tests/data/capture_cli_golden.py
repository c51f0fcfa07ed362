"""Capture the CLI goldens (run from the repo root).

Writes ``tests/data/cli_golden.json``: the stdout, stderr and exit code
of every ``repro`` invocation in ``.github/workflows/ci.yml`` and
``README.md``, plus the argv of the parametrized CLI error tests -- the
reference ``tests/test_cli_golden.py`` compares against byte for byte.

Each invocation runs in-process through :func:`repro.cli.main` at
``--scale 0.05``, ``--jobs 1`` and at most 64 cores (README commands
that take ``--num-workers`` run at 16, which keeps the whole set at
about 20-27 s on two cores; the report and the large-die sequence keep
the 64-core die pinned).  A sequence (one CI job or one README block) runs
in a fresh working directory, so its ``.study_cache`` starts empty and
warm re-runs and replays see exactly the files the calls before them
wrote, as they do in CI; the in-process study memo is cleared before
every call, as a new process would start.  The markdown files a
sequence writes are pinned too, and so is the sha256 of every file a
``trace`` step exports (Chrome JSON and JSONL).  Wall times such as
``(0.2s)``, the working directory and the class name Python 3.10+ puts
in ``__init__`` argument errors are normalized.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.cli import main as cli_main
from repro.core.experiment import clear_study_cache

GOLDEN_PATH = pathlib.Path(__file__).parent / "cli_golden.json"
CLUSTER_GOLDEN = pathlib.Path(__file__).parent / "cluster_golden"

_WALL_TIME = re.compile(r"\(\d+\.\d+s\)")
#: Python 3.10+ names the class in ``TypeError`` messages about
#: ``__init__`` arguments; 3.9 does not.
_INIT_QUALNAME = re.compile(r"\b[\w.]+\.(__init__\(\))")


def _tampered(golden, tamper):
    """Setup step: write *golden* from ``cluster_golden`` with one member
    broken by *tamper* into the working directory."""

    def write(workdir):
        data = json.loads((CLUSTER_GOLDEN / golden).read_text())
        tamper(data)
        (workdir / golden).write_text(json.dumps(data))

    return write


def _energy_tampered(record, copy):
    """Setup step: copy *record*, which an earlier step saved, to *copy*
    with 1 J added to the energy of its first completed job."""

    def write(workdir):
        data = json.loads((workdir / record).read_text())
        completed = next(
            row for row in data["records"] if row["status"] == "completed"
        )
        completed["energy_j"] += 1.0
        (workdir / copy).write_text(json.dumps(data))

    return write


def _first_entry_results_emptied(workdir):
    """Setup step: set ``study.results`` of the first entry in
    ``.study_cache`` (by path) to ``[]``, as CI does."""
    path = sorted(workdir.glob(".study_cache/??/*.json"))[0]
    envelope = json.loads(path.read_text())
    envelope["study"]["results"] = []
    path.write_text(json.dumps(envelope))


def _plan_file(content):
    """Setup step: write *content* as ``plan.json``."""

    def write(workdir):
        (workdir / "plan.json").write_text(json.dumps(content))

    return write


#: The malformed fault plans of ``tests/faults/test_plan_files.py``.
_BAD_PLANS = (
    {"events": 5},
    [1, 2],
    {"events": [{"kind": "core_failure", "time_s": 0.001}]},
)


#: name -> steps; a step is a command line (after ``repro``) or a setup
#: callable taking the working directory.
SEQUENCES = {
    "ci-orchestrator": [
        "--version",
        "list-apps",
        "sweep histogram --parameter seed --values 9 10 --scale 0.05"
        " --num-workers 16 --jobs 1 --cache-dir .study_cache"
        " --manifest artifacts/sweep_manifest.json",
        "sweep histogram --parameter seed --values 9 10 --scale 0.05"
        " --num-workers 16 --jobs 1 --cache-dir .study_cache",
        _first_entry_results_emptied,
        "sweep histogram --parameter seed --values 9 10 --scale 0.05"
        " --num-workers 16 --jobs 1 --cache-dir .study_cache",
        "trace --app histogram --system vfi2_winoc --scale 0.05 --seed 9"
        " --num-workers 16 --output artifacts/histogram_vfi2_winoc.trace.json"
        " --jsonl artifacts/histogram_vfi2_winoc.jsonl",
        # CI re-runs the trace under another PYTHONHASHSEED and compares.
        "trace --app histogram --system vfi2_winoc --scale 0.05 --seed 9"
        " --num-workers 16"
        " --output artifacts/histogram_vfi2_winoc.rerun.trace.json"
        " --jsonl artifacts/histogram_vfi2_winoc.rerun.jsonl",
    ],
    "ci-large-die": [
        "sweep histogram --parameter seed --values 9 --scale 0.05"
        " --num-workers 64 --jobs 1 --cache-dir .study_cache"
        " --manifest artifacts/large_die_manifest.json",
        "sweep histogram --parameter seed --values 9 --scale 0.05"
        " --num-workers 64 --jobs 1 --cache-dir .study_cache"
        " --manifest artifacts/large_die_warm_manifest.json",
        "trace --app histogram --system vfi2_winoc --scale 0.05 --seed 9"
        " --num-workers 64"
        " --output artifacts/histogram_128_vfi2_winoc.trace.json",
    ],
    "ci-faults": [
        "faults histogram --scenario core_failure --scale 0.05 --seed 9"
        " --num-workers 16 --cache-dir .study_cache"
        " --manifest artifacts/faults_core_failure_manifest.json"
        " --export-plan artifacts/core_failure.plan.json"
        " --trace artifacts/faults_core_failure.trace.json",
        "faults histogram --scenario throttle --scale 0.05 --seed 9"
        " --num-workers 16 --cache-dir .study_cache"
        " --manifest artifacts/faults_throttle_manifest.json",
        "faults histogram --plan artifacts/core_failure.plan.json"
        " --scale 0.05 --seed 9 --num-workers 16 --cache-dir .study_cache",
        "faults histogram --scenario mixed --seed 5 --num-workers 64"
        " --scale 0.05",
    ],
    "ci-tech": [
        "tech list",
        "tech export --output artifacts/tech_tables.md",
        "tech export --format json --output artifacts/tech_tables.json",
        # Warms the default-technology unit the first frontier must find.
        "sweep histogram --parameter seed --values 9 --scale 0.05"
        " --num-workers 16 --cache-dir .study_cache",
        "tech frontier --app histogram --nodes 65nm 45nm 32nm"
        " --mixes ooo big_little --scale 0.05 --seed 9 --num-workers 16"
        " --cache-dir .study_cache"
        " --manifest artifacts/tech_frontier_manifest.json"
        " --report artifacts/tech_frontier_report.md",
        "tech frontier --app histogram --nodes 65nm 45nm 32nm"
        " --mixes ooo big_little --scale 0.05 --seed 9 --num-workers 16"
        " --cache-dir .study_cache",
    ],
    "ci-power": [
        "power list",
        "power export --format json --output artifacts/power_ladders.json",
        "power sweep --app histogram --scale 0.05 --seed 9 --num-workers 16"
        " --cache-dir .study_cache"
        " --manifest artifacts/power_sweep_manifest.json"
        " --report artifacts/power_frontier_report.md",
        "power sweep --app histogram --scale 0.05 --seed 9 --num-workers 16"
        " --cache-dir .study_cache",
        "faults histogram --scenario throttle --scale 0.05 --seed 9"
        " --num-workers 16 --cache-dir .study_cache"
        " --export-plan artifacts/throttle.plan.json",
        "power sweep --app histogram --caps 20"
        " --plan artifacts/throttle.plan.json --scale 0.05 --seed 9"
        " --num-workers 16 --cache-dir .study_cache",
        "faults histogram --scenario mixed --scale 0.05 --seed 9"
        " --num-workers 16 --cache-dir .study_cache"
        " --export-plan artifacts/mixed.plan.json",
        "power sweep --app histogram --caps 20"
        " --plan artifacts/mixed.plan.json --scale 0.05 --seed 9"
        " --num-workers 16 --cache-dir .study_cache",
    ],
    "ci-cluster": [
        "cluster run --workload smoke --policy fifo --chips 2"
        " --num-workers 16 --cache-dir .study_cache"
        " --record artifacts/cluster_smoke_fifo.json"
        " --export-trace artifacts/cluster_smoke.trace.json",
        "cluster run --workload smoke --policy least_edp --chips 2"
        " --num-workers 16 --cache-dir .study_cache"
        " --record artifacts/cluster_smoke_least_edp.json",
        "cluster replay --record artifacts/cluster_smoke_fifo.json"
        " --cache-dir .study_cache",
        "cluster report --record artifacts/cluster_smoke_fifo.json"
        " artifacts/cluster_smoke_least_edp.json"
        " --output artifacts/cluster_smoke_report.md",
    ],
    "ci-cluster-scale": [
        "cluster run --workload heavy --policy speed_scale --chips 2"
        " --num-workers 16 --queue-depth 3 --source closed --retry-limit 3"
        " --backoff-base 3.0 --jobs 1 --cache-dir .study_cache"
        " --record artifacts/cluster_closed_speed_scale.json",
        "cluster replay --record artifacts/cluster_closed_speed_scale.json"
        " --cache-dir .study_cache --jobs 1",
        "cluster run --workload deadline_tight --policy edf_preempt --chips 2"
        " --num-workers 16 --cache-dir .study_cache"
        " --record artifacts/cluster_edf_preempt.json",
        "cluster replay --record artifacts/cluster_edf_preempt.json"
        " --cache-dir .study_cache",
        _energy_tampered(
            "artifacts/cluster_edf_preempt.json",
            "artifacts/cluster_edf_preempt_tampered.json",
        ),
        "cluster replay --record artifacts/cluster_edf_preempt_tampered.json"
        " --cache-dir .study_cache",
    ],
    "readme-campaigns": [
        "report --scale 0.05 --jobs 1 --cache-dir .study_cache",
        "sweep --parameter seed --scale 0.05 --num-workers 16 --jobs 1",
        "sweep kmeans --parameter size --values 16 36 64 --scale 0.05",
    ],
    "readme-faults": [
        "faults histogram --scenario core_failure --scale 0.05"
        " --num-workers 16",
        "faults wordcount --scenario mixed --scale 0.05 --num-workers 16",
    ],
    "readme-cluster": [
        "cluster run --workload burst --policy all --cache-dir .study_cache"
        " --record runs.json",
        "cluster run --workload heavy --policy speed_scale --source closed"
        " --retry-limit 3 --backoff-base 3.0 --queue-depth 3 --jobs 1"
        " --cache-dir .study_cache --record closed.json",
        "cluster replay --record closed.json --cache-dir .study_cache --jobs 1",
        "cluster report --record runs_*.json",
    ],
    "readme-tech": [
        "tech list",
        "tech frontier --app histogram --nodes 65nm 32nm"
        " --mixes ooo big_little --scale 0.05 --num-workers 16"
        " --cache-dir .study_cache --report tech.md",
        "tech export --format json --output tech.json",
    ],
    "readme-power": [
        "power list",
        "power sweep --app histogram --scale 0.05 --num-workers 16"
        " --cache-dir .study_cache --report power.md",
        "power export --format json --output power.json",
    ],
    "readme-trace": [
        "trace --app wordcount --system vfi2_winoc --scale 0.05",
    ],
    "errors": [
        "power sweep --caps -5 --num-workers 16 --scale 0.05",
        "power sweep --plan /nonexistent/plan.json --num-workers 16"
        " --scale 0.05",
        "power list --num-workers 17",
        "tech frontier --nodes 14nm --num-workers 16 --scale 0.05",
        "tech frontier --mixes vliw --num-workers 16 --scale 0.05",
        "tech frontier --caps 0 -5 --num-workers 16 --scale 0.05",
        "tech export --nodes bogus",
        "run-study histogram --scale -1",
        "trace --app histogram --scale 0.05 --num-workers 17",
        "sweep histogram --num-workers 17 --scale 0.05",
        "trace --app histogram --scale 0.05 --num-workers 16"
        " --output missing/out.trace.json",
        "cluster run --policy bogus",
        "cluster run --queue-depth 0",
        "cluster run --jobs 0",
        _tampered(
            "smoke_fifo.json",
            lambda data: data["records"][0]["job"].update(bogus=1),
        ),
        "cluster replay --record smoke_fifo.json",
        _tampered("smoke_fifo.json", lambda data: data.update(records=5)),
        "cluster replay --record smoke_fifo.json",
        _tampered("smoke_fifo.json", lambda data: data.pop("records")),
        "cluster replay --record smoke_fifo.json",
        _tampered(
            "smoke.trace.json",
            lambda data: data["jobs"][0].update(bogus=1),
        ),
        "cluster run --trace smoke.trace.json --policy fifo",
        # json.dumps writes NaN / Infinity tokens, which json.loads reads.
        _tampered(
            "smoke.trace.json",
            lambda data: data["jobs"][0].update(arrival_s=float("nan")),
        ),
        "cluster run --trace smoke.trace.json --policy fifo",
        _tampered(
            "smoke.trace.json",
            lambda data: data["jobs"][1].update(input_mb=float("inf")),
        ),
        "cluster run --trace smoke.trace.json --policy fifo",
    ] + [
        step
        for plan in _BAD_PLANS
        for step in (
            _plan_file(plan),
            "faults histogram --plan plan.json --scale 0.05 --num-workers 16",
            "power sweep --app histogram --plan plan.json --scale 0.05"
            " --num-workers 16",
            "cluster run --policy fifo --fault-plan plan.json",
        )
    ],
    # Not in CI or the README: repeated sweep values, and the ladder
    # markdown that only goes to stdout.
    "extras": [
        "power export --num-workers 16 64",
        "power sweep --caps 20 20 --num-workers 16 --scale 0.05",
        "tech frontier --nodes 65nm 65nm --mixes ooo --num-workers 16"
        " --scale 0.05",
        "sweep --parameter size --values 16 16 --scale 0.05",
    ],
}


def _normalize(text, workdir):
    for root in {str(workdir), os.path.realpath(workdir)}:
        text = text.replace(root, "<tmp>")
    return _INIT_QUALNAME.sub(r"\1", _WALL_TIME.sub("(*s)", text))


def run_step(command, workdir):
    """Run one command line in *workdir*; its exit code and normalized
    stdout/stderr (split on newlines, so the file diffs line by line)."""
    argv = []
    for word in shlex.split(command):
        matches = sorted(glob.glob(word)) if "*" in word else [word]
        argv.extend(matches or [word])
    clear_study_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse: --version, usage errors
            code = exc.code
    return {
        "command": command,
        "exit": code,
        "stdout": _normalize(out.getvalue(), workdir).split("\n"),
        "stderr": _normalize(err.getvalue(), workdir).split("\n"),
    }


def _trace_exports(step):
    """The paths a ``trace`` step names with ``--output`` and ``--jsonl``."""
    if callable(step) or not step.startswith("trace "):
        return []
    words = shlex.split(step)
    return [
        path for flag, path in zip(words, words[1:])
        if flag in ("--output", "--jsonl")
    ]


def run_sequence(name, workdir):
    """Run sequence *name* with *workdir* as the working directory: one
    result per command, then the markdown files the commands wrote, then
    the sha256 of each trace export that was written."""
    workdir = pathlib.Path(workdir)
    (workdir / "artifacts").mkdir()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        steps = []
        for step in SEQUENCES[name]:
            if callable(step):
                step(workdir)
            else:
                steps.append(run_step(step, workdir))
    finally:
        os.chdir(previous)
    for path in sorted(workdir.rglob("*.md")):
        steps.append({
            "file": str(path.relative_to(workdir)),
            "text": path.read_text().split("\n"),
        })
    for step in SEQUENCES[name]:
        for export in _trace_exports(step):
            path = workdir / export
            if path.exists():
                steps.append({
                    "file": export,
                    "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                })
    return steps


def main():
    golden = {}
    for name in SEQUENCES:
        with tempfile.TemporaryDirectory() as workdir:
            golden[name] = run_sequence(name, workdir)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
