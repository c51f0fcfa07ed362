"""Markdown report generation."""

import pytest

from repro.analysis.figures import collect_studies
from repro.analysis.report import generate_report


@pytest.fixture(scope="module")
def report_text():
    studies = collect_studies(scale=0.3, seed=9)
    return generate_report(studies=studies, scale=0.3, seed=9)


def test_report_sections(report_text):
    for section in (
        "# Reproduction report",
        "## Table 1",
        "## Table 2",
        "## Figure 2",
        "## Figure 4",
        "## Figure 5",
        "## Figure 7",
        "## Figure 8",
        "## Per-configuration summary",
    ):
        assert section in report_text


def test_report_mentions_all_apps(report_text):
    for label in ("MM", "Kmeans", "PCA", "HIST", "WC", "LR"):
        assert label in report_text


def test_report_mentions_all_configs(report_text):
    for config in ("nvfi_mesh", "vfi1_mesh", "vfi2_mesh", "vfi2_winoc"):
        assert config in report_text


def test_report_markdown_tables_well_formed(report_text):
    for line in report_text.splitlines():
        if line.startswith("|") and not line.startswith("|-"):
            assert line.endswith("|"), line


def test_generate_report_takes_only_the_paper_inputs():
    # Sections beyond the paper (faults, cluster, tech, power) are public
    # functions that callers append; the report itself renders studies.
    import inspect

    assert list(inspect.signature(generate_report).parameters) == [
        "studies", "scale", "seed",
    ]
