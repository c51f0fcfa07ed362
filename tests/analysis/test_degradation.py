"""The fault-degradation section of the analysis report."""

import pytest

from repro.analysis.report import degradation_rows, degradation_section
from repro.core.experiment import run_app_study
from repro.faults import preset_plan


@pytest.fixture(scope="module")
def clean():
    return run_app_study("histogram", scale=0.05, seed=9, num_workers=16)


@pytest.fixture(scope="module")
def faulted(clean):
    plan = preset_plan(
        "core_failure", clean.result("nvfi_mesh").total_time_s, 16
    )
    return run_app_study(
        "histogram", scale=0.05, seed=9, num_workers=16, fault_plan=plan
    )


class TestDegradationRows:
    def test_one_row_per_shared_config(self, clean, faulted):
        rows = degradation_rows(clean, faulted)
        assert [row["config"] for row in rows] == [
            "nvfi_mesh", "vfi1_mesh", "vfi2_mesh", "vfi2_winoc"
        ]
        for row in rows:
            assert list(row) == [
                "config", "makespan x", "energy %", "EDP x", "re-executed",
                "substituted", "lost busy (ms)", "events",
            ]

    def test_values_reflect_the_failure(self, clean, faulted):
        for row in degradation_rows(clean, faulted):
            assert float(row["makespan x"]) > 1.0
            assert float(row["EDP x"]) > 1.0
            assert int(row["re-executed"]) + int(row["substituted"]) > 0
            assert row["events"].startswith("1/0")

    def test_identical_studies_degrade_nowhere(self, clean):
        for row in degradation_rows(clean, clean):
            assert float(row["makespan x"]) == pytest.approx(1.0)
            assert row["energy %"] == "+0.0"
            assert int(row["re-executed"]) == 0


class TestDegradationSection:
    def test_renders_markdown_table(self, clean, faulted):
        text = degradation_section(
            {"histogram": clean}, {"histogram": faulted}
        )
        assert text.startswith("## Fault degradation")
        assert "### HIST" in text
        assert "failed cores [4]" in text
        assert "| makespan x |" in text
        assert "| nvfi_mesh |" in text

    def test_disjoint_study_sets_say_so(self, clean, faulted):
        text = degradation_section({"histogram": clean}, {"kmeans": faulted})
        assert "No app present in both" in text

    def test_generate_report_appends_the_section(self, clean, faulted):
        from repro.analysis.figures import ALL_APPS
        from repro.analysis.report import generate_report

        # The figure sections index all six app names; aliasing them to
        # the same small study keeps this an end-to-end report test.
        # generate_report renders the paper; callers append the sections
        # beyond it.
        studies = {name: clean for name in ALL_APPS}
        text = generate_report(studies) + "\n" + degradation_section(
            studies, {"histogram": faulted}
        )
        assert "## Fault degradation" in text
        assert "failed cores [4]" in text
        assert text.index("## Fault degradation") > text.index(
            "## Per-configuration summary"
        )
