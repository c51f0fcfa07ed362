"""The `repro power` CLI: list / sweep / export and the error contract."""

import json

import pytest

from repro.cli import main


def test_power_list_prints_fractions_and_ladders(capsys):
    rc = main(["power", "list"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "0.9 0.75 0.6 0.45" in captured.out
    assert "est. peak (W)" in captured.out
    for cores in ("16", "64", "256"):
        assert cores in captured.out


def test_power_export_json_round_trips(tmp_path):
    output = tmp_path / "power.json"
    rc = main([
        "power", "export", "--format", "json", "--num-workers", "16", "64",
        "--output", str(output),
    ])
    assert rc == 0
    payload = json.loads(output.read_text())
    assert payload["cap_fractions"] == [0.9, 0.75, 0.6, 0.45]
    assert [d["num_workers"] for d in payload["dies"]] == [16, 64]
    for die in payload["dies"]:
        assert len(die["default_caps_w"]) == 4
        assert max(die["default_caps_w"]) < die["estimated_peak_w"]


def test_power_export_markdown(capsys):
    rc = main(["power", "export", "--num-workers", "16"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "## Power-cap ladders" in captured.out
    assert "| cores |" in captured.out


def test_power_sweep_end_to_end(capsys, tmp_path):
    report = tmp_path / "section.md"
    manifest = tmp_path / "manifest.json"
    rc = main([
        "power", "sweep", "--app", "histogram",
        "--caps", "25", "16",
        "--scale", "0.05", "--seed", "9", "--num-workers", "16",
        "--cache-dir", str(tmp_path / "cache"),
        "--report", str(report), "--manifest", str(manifest),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "uncapped baseline + 2 cap levels" in captured.out
    assert "uncapped" in captured.out
    text = report.read_text()
    assert "## Power-cap frontier" in text
    assert "DVFS-ladder residency" in text
    assert manifest.exists()
    assert (tmp_path / "manifest.trace.json").exists()
    # Baseline + 2 caps = 3 units in the campaign manifest.
    assert len(json.loads(manifest.read_text())["records"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "sweep", "--caps", "-5", "--num-workers", "16",
         "--scale", "0.05"],
        ["power", "sweep", "--plan", "/nonexistent/plan.json",
         "--num-workers", "16", "--scale", "0.05"],
        ["power", "list", "--num-workers", "17"],
    ],
)
def test_power_errors_are_one_line_on_stderr(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("repro: error: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_power_sweep_runs_each_repeated_cap_once(capsys, tmp_path):
    rc = main([
        "power", "sweep", "--caps", "20", "20", "--scale", "0.05",
        "--seed", "9", "--num-workers", "16",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "uncapped baseline + 1 cap levels" in captured.out
    assert captured.err.count(": computed") == 2  # baseline + one cap
