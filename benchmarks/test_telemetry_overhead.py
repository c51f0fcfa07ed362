"""Overhead guard: the default NullTracer must be free.

Telemetry instruments the hot paths of the simulator (task scheduling,
latency refreshes, energy accounting), so the disabled-by-default
``NullTracer`` has to cost nothing measurable.  This benchmark runs the
same smoke study in two fresh interpreters:

* **null** -- the package as shipped: ``repro.telemetry`` imported, the
  process-wide ``NULL_TRACER`` installed, every ``if tracer.enabled:``
  guard evaluated.
* **stub** -- a counterfactual build without the subsystem:
  ``sys.modules['repro.telemetry']`` is pre-seeded with a minimal shim
  before ``repro`` is imported, so none of the real telemetry code ever
  loads.

Each child warms up once and reports the minimum of five timed runs (the
study memo is bypassed so every run simulates); the arms alternate
across several child processes so CPU-frequency and load drift hit both
equally, and each arm scores the minimum over its children.  The guard
asserts the shipped arm is within 2% of the counterfactual.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from conftest import write_result

#: Relative wall-time regression allowed for the shipped NullTracer arm.
BUDGET = 0.02

_CHILD = textwrap.dedent(
    """
    import contextlib
    import json
    import sys
    import time

    ARM = sys.argv[1]

    if ARM == "stub":
        # Replace repro.telemetry with a minimal shim BEFORE repro loads,
        # approximating a build where the subsystem does not exist.
        import types

        class _Null:
            enabled = False
            def span(self, *a, **k): pass
            def sample(self, *a, **k): pass
            def counter_add(self, *a, **k): pass
            def histogram_record(self, *a, **k): pass
            @contextlib.contextmanager
            def wall_span(self, *a, **k):
                yield {}

        _NULL = _Null()
        shim = types.ModuleType("repro.telemetry")
        shim.Tracer = shim.NullTracer = shim.RecordingTracer = _Null
        shim.NULL_TRACER = _NULL
        shim.get_tracer = lambda: _NULL
        shim.set_tracer = lambda tracer: _NULL

        @contextlib.contextmanager
        def use_tracer(tracer):
            yield _NULL

        shim.use_tracer = use_tracer
        sys.modules["repro.telemetry"] = shim

    from repro.core.experiment import run_app_study

    def once():
        start = time.perf_counter()
        run_app_study(
            "histogram", scale=0.2, seed=9, num_workers=16, use_cache=False
        )
        return time.perf_counter() - start

    once()  # warm caches (imports, path tables, numpy dispatch)
    print(json.dumps({"arm": ARM, "time_s": min(once() for _ in range(5))}))
    """
)


def _time_arm(arm: str) -> float:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, arm],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(json.loads(out.stdout.splitlines()[-1])["time_s"])


def test_null_tracer_overhead(results_dir):
    null = stub = None
    delta = float("inf")
    for _ in range(5):  # alternate arms until the floors stabilize
        stub_t = _time_arm("stub")
        null_t = _time_arm("null")
        stub = stub_t if stub is None else min(stub, stub_t)
        null = null_t if null is None else min(null, null_t)
        delta = (null - stub) / stub
        if delta <= BUDGET:
            break
    write_result(
        results_dir,
        "telemetry_overhead.json",
        json.dumps(
            {
                "null_tracer_s": null,
                "no_telemetry_s": stub,
                "relative_delta": delta,
                "budget": BUDGET,
            },
            indent=2,
        ),
    )
    assert delta <= BUDGET, (
        f"NullTracer arm {null:.3f}s vs no-telemetry arm {stub:.3f}s "
        f"({delta * 100:+.1f}%, budget {BUDGET * 100:.0f}%)"
    )
