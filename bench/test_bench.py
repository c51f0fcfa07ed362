"""Harness tests for the benchmark (``python -m pytest bench``)."""

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import hostclock
import spans
import workloads
from repro.telemetry import get_tracer

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# self-time arithmetic
# ---------------------------------------------------------------------- #


def test_self_time_of_synthetic_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [5, 9];
    # a second rep's root is tallied separately.
    recorded = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, "x"],
        ["b", 2.0, 3.0, 1, 0, "x"],
        ["a", 5.0, 9.0, 0, 0, "y"],
        ["root", 20.0, 21.0, -1, 1, None],
    ]
    table = spans.layer_table(recorded, reps={0})
    assert table["root"] == {"total_s": 10.0, "self_s": 3.0, "calls": 1}
    assert table["a"] == {"total_s": 7.0, "self_s": 6.0, "calls": 2}
    assert table["b"] == {"total_s": 1.0, "self_s": 1.0, "calls": 1}
    assert sum(row["self_s"] for row in table.values()) == 10.0
    assert spans.layer_table(recorded, reps={1}) == {
        "root": {"total_s": 1.0, "self_s": 1.0, "calls": 1}
    }


def test_recorded_self_times_sum_to_the_root():
    recorder = spans.Recorder()
    leaf = recorder.wrap("leaf", lambda: sum(range(1000)))
    middle = recorder.wrap("middle", lambda: [leaf() for _ in range(3)])
    recorder.rep = 0
    with recorder.span("root"):
        middle()
        leaf()
    table = spans.layer_table(recorder.spans)
    assert table["leaf"]["calls"] == 4 and table["middle"]["calls"] == 1
    assert math.isclose(
        sum(row["self_s"] for row in table.values()),
        table["root"]["total_s"],
        rel_tol=1e-9,
    )


# ---------------------------------------------------------------------- #
# compare.py verdicts
# ---------------------------------------------------------------------- #

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.03, 9.97]


def test_clear_win_is_a_gain():
    change = [x * 0.8 for x in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == "gain"
    assert compare.verdict(PARENT, change, "higher", 0.1) == "regression"


def test_tie_is_no_regression():
    assert compare.verdict(PARENT, list(reversed(PARENT)), "lower", 0.1) == "no regression"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 8.0, 12.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1) == "unresolved"


def test_too_few_pairs():
    assert compare.verdict(PARENT[:5], PARENT[:5], "lower", 0.1) == "too few pairs"


def test_failure_increase_voids_a_gain():
    metric = {"name": "compute_s", "unit": "s", "better": "lower", "bound": 0.1}

    def runs(values, failed):
        return [
            {"attempted": 10, "failed": failed,
             "metrics": {"compute_s": {"value": v, "unit": "s"}}}
            for v in values
        ]

    rows = compare.compare(
        {"w": runs(PARENT, 0)}, {"w": runs([x * 0.8 for x in PARENT], 1)}, [metric]
    )
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {
        "compute_s": "gain void: failure increase",
        "failed_share": "failure increase",
    }


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #


def test_wrappers_restore_originals_and_leave_the_null_tracer():
    originals = [
        (owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.BOUNDARIES
    ]
    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.Recorder()):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("leave the context abnormally")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert type(get_tracer()).__name__ == "NullTracer"


def test_host_clock_restores_the_alarm_and_scales_by_the_probe():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock()
    clock.start()
    try:
        with clock.measure() as timed:
            deadline = time.perf_counter() + 6 * hostclock.PERIOD_S
            while time.perf_counter() < deadline:
                sum(i * i for i in range(10_000))
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 2 and 0.0 < timed.wall_s
    # The scale is the reference over a mean of sampled probe times.
    scale = timed.ref_s / timed.wall_s
    ref = hostclock.PROBE_REF_S
    assert ref / max(clock.samples) <= scale <= ref / min(clock.samples)


def test_workload_names_match_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


# ---------------------------------------------------------------------- #
# quick end-to-end smoke
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_emits_the_declared_metrics(trace, section):
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metrics in result["metrics"].items():
        emitted = {key: metric["unit"] for key, metric in metrics.items()}
        assert emitted == declared, name
