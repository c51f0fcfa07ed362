"""analysis.report integration: the cluster policy-comparison section."""

import pytest

from repro.analysis.report import cluster_rows, cluster_section
from repro.analysis.tables import format_table
from repro.cluster import run_workload, scheduler_names


@pytest.fixture(scope="module")
def two_runs(smoke_trace, small_fleet, study_cache):
    return [
        run_workload(smoke_trace, small_fleet, name, cache=study_cache)
        for name in ("fifo", "edf")
    ]


class TestClusterRows:
    def test_one_row_per_policy_with_all_columns(self, two_runs):
        rows = cluster_rows(two_runs)
        assert len(rows) == len(two_runs)
        assert [row["policy"] for row in rows] == ["fifo", "edf"]
        for row in rows:
            assert list(row) == [
                "policy", "done/rej", "retry/preempt", "throughput (/ks)",
                "goodput (/ks)", "latency p50/p95 (s)", "wait mean (s)",
                "deadline hit", "energy (kJ)", "fleet EDP (MJ·s)",
            ]
            assert all(isinstance(cell, str) for cell in row.values())

    def test_rows_render_through_format_table(self, two_runs):
        text = format_table(cluster_rows(two_runs))
        assert "fifo" in text and "edf" in text
        assert "throughput (/ks)" in text


class TestClusterSection:
    def test_renders_markdown_table(self, two_runs):
        text = cluster_section(two_runs)
        assert "## Cluster service" in text
        assert "| policy |" in text
        assert "fifo" in text and "edf" in text
        # Workload identity is named so tables aren't ambiguous.
        assert two_runs[0].trace.name in text
        assert two_runs[0].trace.trace_key[:12] in text

    def test_groups_by_trace(
        self, two_runs, burst_trace, small_fleet, study_cache
    ):
        other = run_workload(
            burst_trace, small_fleet, "fifo", cache=study_cache
        )
        text = cluster_section(two_runs + [other])
        assert text.count("| policy |") == 2
        assert text.count("### workload") == 2

    def test_empty_results(self):
        text = cluster_section([])
        assert "No cluster runs recorded." in text


class TestFullComparisonTable:
    def test_all_registered_policies_render(
        self, smoke_trace, small_fleet, study_cache
    ):
        results = [
            run_workload(smoke_trace, small_fleet, name, cache=study_cache)
            for name in scheduler_names()
        ]
        rows = cluster_rows(results)
        assert len(rows) == len(scheduler_names())
        text = cluster_section(results)
        for name in scheduler_names():
            assert name in text
