"""Byte-for-byte regression of the command-line front end.

``tests/data/cli_golden.json`` pins the stdout, stderr and exit code of
every ``repro`` invocation in CI and the README, plus the argv of the
CLI error tests and the markdown files the commands write
(``tests/data/capture_cli_golden.py`` lists them and re-captures the
file).  Refactors of the CLI, the report renderers or the cluster
service must reproduce each one exactly.
"""

import json

import pytest

from tests.data.capture_cli_golden import GOLDEN_PATH, SEQUENCES, run_sequence


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_every_sequence_is_pinned(golden):
    assert list(golden) == list(SEQUENCES)


@pytest.mark.parametrize("name", list(SEQUENCES))
def test_sequence_reproduces_golden(golden, name, tmp_path):
    steps = run_sequence(name, tmp_path)
    assert len(steps) == len(golden[name])
    for got, want in zip(steps, golden[name]):
        assert got == want
