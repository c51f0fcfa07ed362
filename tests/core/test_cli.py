"""Command-line interface."""

import pytest

from repro.cli import main


def test_list_apps(capsys):
    assert main(["list-apps"]) == 0
    out = capsys.readouterr().out
    assert "WC" in out and "999 x 999" in out


def test_run_study(capsys):
    assert main(["run-study", "histogram", "--scale", "0.3", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "vfi2_winoc" in out
    assert "time vs NVFI" in out


def test_design(capsys):
    assert main(["design", "histogram", "--scale", "0.3", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "Island membership" in out
    assert "VFI 1" in out and "VFI 2" in out


def test_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert (
        main(["report", "--scale", "0.3", "--seed", "9", "--output", str(target)])
        == 0
    )
    assert target.exists()
    assert "# Reproduction report" in target.read_text()


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run-study", "sorting"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_sweep_seed_parameter(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    manifest = tmp_path / "manifest.json"
    argv = [
        "sweep", "histogram", "--parameter", "seed",
        "--values", "9", "10", "--scale", "0.3", "--num-workers", "16",
        "--jobs", "2", "--cache-dir", str(cache_dir),
        "--manifest", str(manifest),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "sweep over seed" in out
    assert "Aggregate over the sweep" in out
    assert "vfi2_winoc" in out

    import json

    assert json.load(manifest.open())["summary"]["units"] == 2
    trace = json.load((tmp_path / "manifest.trace.json").open())
    assert len(trace["traceEvents"]) >= 2
    # Warm re-run resolves from the on-disk cache.
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "cached" in err


def test_sweep_runs_each_repeated_value_once(tmp_path, capsys):
    assert main([
        "sweep", "histogram", "--parameter", "size", "--values", "16", "16",
        "--scale", "0.05", "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    captured = capsys.readouterr()
    assert "sweep over num_workers = [16]" in captured.out
    assert captured.err.count(": computed") == 1


def test_sweep_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["sweep", "sorting"])


def test_report_parallel_with_cache(tmp_path, capsys):
    # Runs after test_report_to_file, so the forked workers inherit the
    # warm in-process memo and only exercise the orchestration plumbing.
    target = tmp_path / "report.md"
    assert (
        main([
            "report", "--scale", "0.3", "--seed", "9",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
            "--output", str(target),
        ])
        == 0
    )
    assert "# Reproduction report" in target.read_text()


def test_topology(capsys):
    assert main(["topology", "histogram", "--scale", "0.3", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "wire length histogram" in out
    assert "V/F floorplan" in out


def test_version(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


class TestErrorExits:
    """Bad arguments exit nonzero with one stderr line, not a traceback."""

    def test_bad_scale(self, capsys):
        assert main(["run-study", "histogram", "--scale", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1

    def test_non_square_die(self, capsys):
        assert main([
            "trace", "--app", "histogram", "--scale", "0.1",
            "--num-workers", "17",
        ]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        assert main([
            "trace", "--app", "histogram", "--scale", "0.1",
            "--num-workers", "16",
            "--output", str(tmp_path / "missing" / "out.trace.json"),
        ]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unknown_system_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--app", "histogram", "--system", "toroidal"])
        assert excinfo.value.code != 0


def test_trace_command(tmp_path, capsys):
    output = tmp_path / "histogram.trace.json"
    jsonl = tmp_path / "histogram.jsonl"
    assert main([
        "trace", "--app", "histogram", "--scale", "0.1", "--seed", "9",
        "--num-workers", "16",
        "--output", str(output), "--jsonl", str(jsonl),
    ]) == 0
    out = capsys.readouterr().out
    assert "Per-phase timeline" in out
    assert "Per-island activity" in out
    assert "Eq. (3) cap rejections" in out

    import json

    document = json.loads(output.read_text())
    assert document["traceEvents"]
    for event in document["traceEvents"]:
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
    assert all(json.loads(line) for line in jsonl.read_text().splitlines())


def test_faults_command(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    plan_path = tmp_path / "plan.json"
    manifest = tmp_path / "manifest.json"
    argv = [
        "faults", "histogram", "--scenario", "core_failure",
        "--scale", "0.05", "--seed", "9", "--num-workers", "16",
        "--cache-dir", str(cache_dir),
        "--manifest", str(manifest),
        "--export-plan", str(plan_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "plan 'core_failure'" in out
    assert "failed cores: [4]" in out
    assert "makespan x" in out and "re-executed" in out
    assert manifest.exists()

    import json

    from repro.faults import FaultPlan

    plan = FaultPlan.from_json(plan_path.read_text())
    assert len(plan) == 1
    document = json.loads(manifest.read_text())
    assert document["summary"]["units"] == 1

    # Re-running against the exported plan file resolves from the cache.
    capsys.readouterr()
    argv = [
        "faults", "histogram", "--plan", str(plan_path),
        "--scale", "0.05", "--seed", "9", "--num-workers", "16",
        "--cache-dir", str(cache_dir),
    ]
    assert main(argv) == 0
    assert "makespan x" in capsys.readouterr().out


def test_faults_rejects_empty_plan(tmp_path, capsys):
    plan_path = tmp_path / "empty.json"
    plan_path.write_text('{"events":[],"name":"empty"}')
    result = main([
        "faults", "histogram", "--plan", str(plan_path),
        "--scale", "0.05", "--seed", "9", "--num-workers", "16",
    ])
    assert result == 2
    assert "empty" in capsys.readouterr().err
