"""The `repro tech` CLI: list / frontier / export and the error contract."""

import json

import pytest

from repro.cli import main


def test_tech_list_prints_both_variants_and_core_types(capsys):
    rc = main(["tech", "list"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "technology nodes (itrs):" in captured.out
    assert "technology nodes (cons):" in captured.out
    assert "core types:" in captured.out
    for name in ("90nm", "65nm", "45nm", "32nm", "22nm", "16nm"):
        assert name in captured.out
    assert "ooo" in captured.out and "io" in captured.out


def test_tech_export_markdown(capsys, tmp_path):
    output = tmp_path / "tech.md"
    rc = main(["tech", "export", "--output", str(output)])
    assert rc == 0
    text = output.read_text()
    assert "## Technology frontier" in text
    assert "| node | variant |" in text
    assert "dark %" in text


def test_tech_export_json_round_trips(capsys, tmp_path):
    output = tmp_path / "tech.json"
    rc = main([
        "tech", "export", "--format", "json", "--nodes", "65nm", "45nm",
        "--output", str(output),
    ])
    assert rc == 0
    payload = json.loads(output.read_text())
    assert [n["nm"] for n in payload["nodes"]] == [65, 45]
    assert payload["core_types"]["io"]["perf_scale"] == 0.55
    assert payload["frontier"]  # nodes x mixes x caps rows
    assert {row["node"] for row in payload["frontier"]} == {"65nm", "45nm"}


def test_tech_frontier_end_to_end(capsys, tmp_path):
    report = tmp_path / "section.md"
    manifest = tmp_path / "manifest.json"
    rc = main([
        "tech", "frontier", "--app", "histogram",
        "--nodes", "65nm", "45nm", "32nm", "--mixes", "ooo", "big_little",
        "--scale", "0.05", "--seed", "9", "--num-workers", "16",
        "--cache-dir", str(tmp_path / "cache"),
        "--report", str(report), "--manifest", str(manifest),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "6 technology configurations" in captured.out
    assert "default (65nm)" in captured.out
    assert "32nm-itrs/big_little" in captured.out
    text = report.read_text()
    assert "## Technology frontier" in text
    assert "### Measured sweep" in text
    assert manifest.exists()
    assert (tmp_path / "manifest.trace.json").exists()
    # 3 nodes x 2 mixes = 6 units in the campaign manifest.
    assert len(json.loads(manifest.read_text())["records"]) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["tech", "frontier", "--nodes", "14nm", "--num-workers", "16",
         "--scale", "0.05"],
        ["tech", "frontier", "--mixes", "vliw", "--num-workers", "16",
         "--scale", "0.05"],
        ["tech", "export", "--nodes", "bogus"],
        # A non-positive cap is refused before any study runs.
        ["tech", "frontier", "--caps", "0", "-5", "--num-workers", "16",
         "--scale", "0.05"],
    ],
)
def test_tech_errors_are_one_line_on_stderr(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("repro: error: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_frontier_runs_each_repeated_node_once(capsys, tmp_path):
    rc = main([
        "tech", "frontier", "--nodes", "45nm", "45nm", "--mixes", "ooo",
        "--caps", "40", "40", "--scale", "0.05", "--seed", "9",
        "--num-workers", "16", "--cache-dir", str(tmp_path / "cache"),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "1 technology configurations (1 nodes x 1 mixes" in captured.out
    assert captured.out.count("45nm | itrs    | ooo | 40") == 1
    assert captured.err.count(": computed") == 1
