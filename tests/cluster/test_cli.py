"""The `repro cluster` CLI: run / replay / report round trips."""

import json
import pathlib

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "data" / "cluster_golden"


@pytest.fixture(scope="module")
def cache_dir(study_cache):
    return str(study_cache.root)


def test_cluster_run_single_policy(capsys, cache_dir, tmp_path):
    record = tmp_path / "run.json"
    trace = tmp_path / "trace.json"
    rc = main([
        "cluster", "run", "--workload", "smoke", "--policy", "fifo",
        "--cache-dir", cache_dir,
        "--record", str(record), "--export-trace", str(trace),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "fifo" in captured.out
    assert "throughput (/ks)" in captured.out
    assert record.exists() and trace.exists()
    assert json.loads(record.read_text())["policy"] == "fifo"
    assert json.loads(trace.read_text())["name"] == "smoke"


def test_cluster_run_all_policies_writes_per_policy_records(
    capsys, cache_dir, tmp_path
):
    base = tmp_path / "runs.json"
    rc = main([
        "cluster", "run", "--workload", "smoke", "--policy", "all",
        "--cache-dir", cache_dir, "--record", str(base),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    for policy in ("fifo", "priority", "edf", "least_edp", "locality"):
        assert policy in captured.out
        assert (tmp_path / f"runs_{policy}.json").exists()


def test_cluster_replay_verifies(capsys, cache_dir, tmp_path):
    record = tmp_path / "run.json"
    assert main([
        "cluster", "run", "--workload", "smoke", "--policy", "edf",
        "--cache-dir", cache_dir, "--record", str(record),
    ]) == 0
    capsys.readouterr()
    rc = main([
        "cluster", "replay", "--record", str(record),
        "--cache-dir", cache_dir,
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "replay byte-identical" in captured.out
    assert "0 studies simulated" in captured.out


def test_cluster_replay_detects_tampering(capsys, cache_dir, tmp_path):
    record = tmp_path / "run.json"
    assert main([
        "cluster", "run", "--workload", "smoke", "--policy", "fifo",
        "--cache-dir", cache_dir, "--record", str(record),
    ]) == 0
    data = json.loads(record.read_text())
    data["report"]["total_energy_j"] += 1.0
    record.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main([
        "cluster", "replay", "--record", str(record),
        "--cache-dir", cache_dir,
    ])
    captured = capsys.readouterr()
    assert rc == 3
    assert "diverged" in captured.err


def test_cluster_report_from_records(capsys, cache_dir, tmp_path):
    base = tmp_path / "runs.json"
    assert main([
        "cluster", "run", "--workload", "smoke", "--policy", "all",
        "--cache-dir", cache_dir, "--record", str(base),
    ]) == 0
    capsys.readouterr()
    records = sorted(str(p) for p in tmp_path.glob("runs_*.json"))
    output = tmp_path / "section.md"
    rc = main(
        ["cluster", "report", "--record"] + records
        + ["--output", str(output)]
    )
    assert rc == 0
    text = output.read_text()
    assert "## Cluster service" in text
    assert text.count("| policy |") == 1  # one trace -> one table
    for policy in ("fifo", "priority", "edf", "least_edp", "locality"):
        assert policy in text


def test_cluster_run_custom_trace(capsys, cache_dir, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main([
        "cluster", "run", "--workload", "smoke",
        "--cache-dir", cache_dir, "--policy", "fifo",
        "--export-trace", str(trace_path),
    ]) == 0
    capsys.readouterr()
    rc = main([
        "cluster", "run", "--trace", str(trace_path),
        "--policy", "locality", "--cache-dir", cache_dir,
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "locality" in captured.out



def _bogus_record_job_key(data):
    data["records"][0]["job"]["bogus"] = 1


def _records_not_a_list(data):
    data["records"] = 5


def _records_missing(data):
    del data["records"]


def _bogus_trace_job_key(data):
    data["jobs"][0]["bogus"] = 1


@pytest.mark.parametrize(
    "golden, tamper, member",
    [
        ("smoke_fifo.json", _bogus_record_job_key, "records"),
        ("smoke_fifo.json", _records_not_a_list, "records"),
        ("smoke_fifo.json", _records_missing, "records"),
        ("smoke.trace.json", _bogus_trace_job_key, "jobs"),
    ],
)
def test_malformed_input_is_one_line_exit_2(
    capsys, tmp_path, golden, tamper, member
):
    data = json.loads((GOLDEN_DIR / golden).read_text())
    tamper(data)
    path = tmp_path / golden
    path.write_text(json.dumps(data))
    if golden.endswith(".trace.json"):
        argv = ["cluster", "run", "--trace", str(path), "--policy", "fifo"]
    else:
        argv = ["cluster", "replay", "--record", str(path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"repro: error: {path}: member {member!r}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--policy", "bogus"], "unknown scheduler 'bogus'"),
        (["--queue-depth", "0"], "max_queue_depth must be >= 1, got 0"),
        (["--jobs", "0"], "prefetch_jobs must be >= 1, got 0"),
    ],
)
def test_bad_run_arguments_fail_before_the_banner(capsys, flags, message):
    rc = main(["cluster", "run"] + flags)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"repro: error: {message}")
