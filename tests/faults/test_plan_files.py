"""Malformed fault-plan files: one stderr line naming the file, exit 2.

``repro faults --plan``, ``repro power sweep --plan`` and ``repro cluster
run --fault-plan`` read their plan through
:func:`repro.utils.jsonutil.load_json_object` before any study runs, so
a plan of the wrong shape fails fast -- no traceback, no progress line,
no bare key name.
"""

import json

import pytest

from repro.cli import main

MALFORMED = {
    "events_not_a_list": ({"events": 5}, "TypeError"),
    "not_an_object": ([1, 2], "expected a JSON object, got list"),
    "event_without_target": (
        {"events": [{"kind": "core_failure", "time_s": 0.001}]},
        "KeyError: 'target'",
    ),
}

SITES = {
    "faults": ["faults", "histogram", "--plan"],
    "power_sweep": ["power", "sweep", "--app", "histogram", "--plan"],
    "cluster_run": ["cluster", "run", "--policy", "fifo", "--fault-plan"],
}

SMALL = ["--scale", "0.05", "--num-workers", "16"]


@pytest.mark.parametrize("site", sorted(SITES))
@pytest.mark.parametrize("document", sorted(MALFORMED))
def test_malformed_plan_is_one_line_exit_2(capsys, tmp_path, site, document):
    content, detail = MALFORMED[document]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(content))
    argv = SITES[site] + [str(path)]
    if site != "cluster_run":
        argv += SMALL
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err  # no progress line before it
    assert lines[0].startswith(f"repro: error: {path}: ")
    assert detail in lines[0]
    assert "Traceback" not in captured.err
    assert captured.out == ""
