"""Tracer primitives: spans, counters, histograms, global install."""

import pytest

from repro.telemetry import (
    NULL_TRACER,
    Histogram,
    NullTracer,
    RecordingTracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestNullTracer:
    def test_disabled(self):
        assert NullTracer().enabled is False

    def test_all_operations_are_noops(self):
        tracer = NullTracer()
        tracer.span("x", 0.0, 1.0, cat="c", pid="p", tid=3, foo=1)
        tracer.sample("x", 0.0, 1.0)
        tracer.counter_add("x", 2.0, key="k")
        tracer.histogram_record("x", 0.5)
        with tracer.wall_span("x"):
            pass

    def test_is_process_default(self):
        assert get_tracer() is NULL_TRACER


class TestRecordingTracer:
    def test_span_recorded(self):
        tracer = RecordingTracer()
        tracer.span("map", 1.0, 2.0, cat="sim.phase", pid="p", tid=0, iteration=3)
        (span,) = tracer.spans
        assert span.name == "map"
        assert span.end_s == pytest.approx(3.0)
        assert span.args == {"iteration": 3}
        assert not span.wall

    def test_counters_accumulate_per_key(self):
        tracer = RecordingTracer()
        tracer.counter_add("flits", 3.0, key="a")
        tracer.counter_add("flits", 4.0, key="a")
        tracer.counter_add("flits", 5.0, key="b")
        assert tracer.counter_total("flits", key="a") == pytest.approx(7.0)
        assert tracer.counter_total("flits") == pytest.approx(12.0)
        assert tracer.counter_total("missing") == 0.0

    def test_wall_span_measures_and_marks(self):
        tracer = RecordingTracer()
        with tracer.wall_span("stage", cat="vfi", pid="design-flow"):
            pass
        (span,) = tracer.spans
        assert span.wall
        assert span.duration_s >= 0.0

    def test_wall_span_records_what_the_block_adds(self):
        tracer = RecordingTracer()
        with tracer.wall_span("stage", cat="noc", kept=1) as args:
            args["counted"] = 3
        (span,) = tracer.spans
        assert span.args == {"kept": 1, "counted": 3}
        with NullTracer().wall_span("stage") as args:
            args["counted"] = 3  # accepted, recorded nowhere

    def test_wall_span_records_on_exception(self):
        tracer = RecordingTracer()
        with pytest.raises(RuntimeError):
            with tracer.wall_span("stage"):
                raise RuntimeError("boom")
        assert len(tracer.spans) == 1

    def test_spans_by_filters(self):
        tracer = RecordingTracer()
        tracer.span("a", 0.0, 1.0, cat="sim.phase", pid="p1")
        tracer.span("b", 0.0, 1.0, cat="sim.task", pid="p1")
        tracer.span("c", 0.0, 1.0, cat="sim.phase", pid="p2")
        assert [s.name for s in tracer.spans_by(cat="sim.phase")] == ["a", "c"]
        assert [s.name for s in tracer.spans_by(pid="p1")] == ["a", "b"]
        assert [s.name for s in tracer.spans_by(cat="sim.phase", pid="p2")] == ["c"]

    def test_clear(self):
        tracer = RecordingTracer()
        tracer.span("a", 0.0, 1.0)
        tracer.counter_add("c")
        tracer.histogram_record("h", 1.0)
        tracer.sample("s", 0.0, 1.0)
        tracer.clear()
        assert not tracer.spans and not tracer.counters
        assert not tracer.histograms and not tracer.samples


class TestHistogram:
    def test_statistics(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 4.0):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(7.0 / 3.0)
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        # log2 buckets: 1.0 -> 0, 2.0 -> 1, 4.0 -> 2.
        assert histogram.buckets == {0: 1, 1: 1, 2: 1}

    def test_zero_goes_to_underflow_bucket(self):
        histogram = Histogram()
        histogram.record(0.0)
        assert histogram.count == 1
        assert list(histogram.buckets.values()) == [1]

    def test_empty_to_dict(self):
        data = Histogram().to_dict()
        assert data["count"] == 0
        assert data["min"] == 0.0 and data["max"] == 0.0


class TestGlobalInstall:
    def test_set_and_restore(self):
        tracer = RecordingTracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert get_tracer() is previous

    def test_use_tracer_restores_on_exception(self):
        tracer = RecordingTracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                assert get_tracer() is tracer
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER

    def test_set_none_restores_null(self):
        previous = set_tracer(RecordingTracer())
        set_tracer(None)
        assert get_tracer() is NULL_TRACER
        set_tracer(previous)
