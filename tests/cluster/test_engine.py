"""Event engine: golden replay pins, legacy round-trip, heap order,
finite times.

The golden records under ``tests/data/cluster_golden/`` were written by
the pre-engine monolithic ``ClusterService.run`` loop.  Replaying them
through the event engine must reproduce every byte -- that is the
refactor's central contract -- and loading them at all pins the legacy
schema (no ``attempts``/``preemptions``/``source`` keys) against the
extended one.
"""

import json
import math
import pathlib
from dataclasses import dataclass

import pytest

from repro.cluster import (
    ArrivalTrace,
    ClusterJob,
    ClusterService,
    JobEstimate,
    fleet_for,
)
from repro.cluster.events import (
    ARRIVAL,
    COMPLETE,
    DISPATCH,
    EVENT_RANK,
    PREEMPT,
    RETRY,
    Event,
    EventEngine,
)
from repro.cluster.jobs import TERMINAL_STATUSES
from repro.cluster.record import ClusterRunResult, replay, verify_replay
from repro.utils.jsonutil import canonical_json
from tests.cluster.test_properties import FakeCostModel

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "data" / "cluster_golden"
GOLDEN_POLICIES = ("fifo", "priority", "edf")


class TestGoldenReplay:
    """The engine reproduces pre-engine records byte for byte."""

    @pytest.mark.parametrize("policy", GOLDEN_POLICIES)
    def test_golden_record_replays_byte_identical(self, policy, study_cache):
        record = ClusterRunResult.load(GOLDEN_DIR / f"smoke_{policy}.json")
        fresh = replay(record, cache=study_cache)
        assert verify_replay(record, fresh) is None
        assert fresh.payload_json() == record.payload_json()

    def test_golden_trace_matches_record_traces(self):
        with open(GOLDEN_DIR / "smoke.trace.json") as handle:
            trace_dict = json.load(handle)
        for policy in GOLDEN_POLICIES:
            record = ClusterRunResult.load(GOLDEN_DIR / f"smoke_{policy}.json")
            assert record.trace.to_dict() == trace_dict


class TestLegacyRoundTrip:
    """Pre-engine record files load, re-serialize and verify unchanged."""

    @pytest.mark.parametrize("policy", GOLDEN_POLICIES)
    def test_load_reserialize_is_byte_identical(self, policy):
        path = GOLDEN_DIR / f"smoke_{policy}.json"
        record = ClusterRunResult.load(path)
        with open(path) as handle:
            on_disk = handle.read()
        assert canonical_json(record.to_dict()) + "\n" == on_disk

    @pytest.mark.parametrize("policy", GOLDEN_POLICIES)
    def test_stored_digest_matches_recomputed(self, policy):
        path = GOLDEN_DIR / f"smoke_{policy}.json"
        with open(path) as handle:
            raw = json.load(handle)
        record = ClusterRunResult.from_dict(raw)
        assert record.replay_digest == raw["replay_digest"]

    def test_legacy_records_read_schema_defaults(self):
        record = ClusterRunResult.load(GOLDEN_DIR / "smoke_fifo.json")
        assert record.source is None
        for job_record in record.records:
            assert job_record.attempts == 1
            assert job_record.preemptions == 0
            assert job_record.wasted_transfer_s == 0.0
            assert job_record.status in TERMINAL_STATUSES

    def test_legacy_payload_has_no_new_keys(self):
        record = ClusterRunResult.load(GOLDEN_DIR / "smoke_fifo.json")
        payload = record.payload_dict()
        assert "source" not in payload
        for job_record in payload["records"]:
            assert "attempts" not in job_record
            assert "preemptions" not in job_record
            assert "wasted_transfer_s" not in job_record
        assert "retries" not in payload["report"]
        assert "preemptions" not in payload["report"]


class TestEventEngine:
    def test_rank_order_at_one_timestamp(self):
        engine = EventEngine()
        # Schedule in reverse application order; the heap must undo it.
        engine.schedule(1.0, DISPATCH, tie=0, payload="d")
        engine.schedule(1.0, PREEMPT, tie=0, payload="p")
        engine.schedule(1.0, ARRIVAL, tie=5, payload="a")
        engine.schedule(1.0, RETRY, tie=9, payload="r")
        engine.schedule(1.0, COMPLETE, tie=3, payload="c")
        seen = []
        engine.run(lambda e: seen.append(e.payload), lambda now: False)
        assert seen == ["c", "r", "a", "p", "d"]

    def test_tie_breaks_on_domain_id_then_seq(self):
        engine = EventEngine()
        engine.schedule(2.0, COMPLETE, tie=7, payload="chip7")
        engine.schedule(2.0, COMPLETE, tie=1, payload="chip1")
        engine.schedule(2.0, ARRIVAL, tie=4, payload="job4")
        engine.schedule(2.0, ARRIVAL, tie=2, payload="job2")
        seen = []
        engine.run(lambda e: seen.append(e.payload), lambda now: False)
        assert seen == ["chip1", "chip7", "job2", "job4"]

    def test_time_advances_only_when_round_is_quiet(self):
        engine = EventEngine()
        engine.schedule(0.0, ARRIVAL, tie=0)
        engine.schedule(1.0, ARRIVAL, tie=1)
        rounds = []

        def round_fn(now):
            rounds.append(now)
            if now == 0.0 and rounds.count(0.0) == 1:
                # First round at t=0 produces same-instant work.
                engine.schedule(0.0, DISPATCH, tie=0)
                return True
            return False

        applied = []
        engine.run(lambda e: applied.append((e.time_s, e.kind)), round_fn)
        assert applied == [
            (0.0, ARRIVAL), (0.0, DISPATCH), (1.0, ARRIVAL),
        ]
        # Round re-ran after the same-instant dispatch, then at t=1.
        assert rounds == [0.0, 0.0, 1.0]
        assert engine.counts[ARRIVAL] == 2
        assert engine.counts[DISPATCH] == 1

    def test_unknown_kind_rejected(self):
        engine = EventEngine()
        with pytest.raises(ValueError, match="unknown event kind"):
            engine.schedule(0.0, "quiesce")

    @pytest.mark.parametrize("time_s", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, time_s):
        engine = EventEngine()
        with pytest.raises(ValueError, match="must be finite"):
            engine.schedule(time_s, COMPLETE)
        assert len(engine) == 0

    def test_events_are_their_own_heap_keys(self):
        engine = EventEngine()
        # Payloads that cannot be ordered: the unique seq decides first.
        first = engine.schedule(1.0, COMPLETE, tie=2, payload=object())
        second = engine.schedule(1.0, COMPLETE, tie=2, payload=object())
        assert isinstance(first, Event)
        assert first == (1.0, EVENT_RANK[COMPLETE], 2, 1, COMPLETE,
                         first.payload)
        assert first < second
        assert engine.schedule(0.5, DISPATCH) < first
        seen = []
        engine.run(lambda e: seen.append(e.seq), lambda now: False)
        assert seen == [3, 1, 2]

    def test_ranks_cover_every_kind(self):
        assert set(EVENT_RANK) == {
            COMPLETE, RETRY, ARRIVAL, PREEMPT, DISPATCH,
        }


# ---------------------------------------------------------------------- #
# finite times: one error line, never a hang
# ---------------------------------------------------------------------- #

#: Twenty jobs over 10 s onto two chips: more than the queue holds.
FINITE_JOBS = tuple(
    ClusterJob(job_id=i, app="histogram", arrival_s=0.5 * i, input_mb=0.0)
    for i in range(20)
)
FINITE_TRACE = ArrivalTrace(name="finite", seed=1, jobs=FINITE_JOBS)


class PricedAt(FakeCostModel):
    """Every estimate at one service time and energy."""

    def __init__(self, service_s, energy_j=1.0):
        super().__init__()
        self.priced = JobEstimate(service_s=service_s, energy_j=energy_j)

    def estimate(self, job, chip):
        return self.priced


@dataclass(frozen=True)
class NanBackoffSource:
    """A closed-loop source whose every retry instant is NaN."""

    trace: ArrivalTrace

    def retry_at(self, job, now, attempts):
        return math.nan

    def to_dict(self):
        return {"kind": "nan-backoff"}


def serve_finite(cost_model, source="open", depth=8):
    fleet = fleet_for(2, num_workers=16)
    service = ClusterService(
        fleet, "fifo", max_queue_depth=depth, cost_model=cost_model
    )
    if source != "open":
        return service.run(source(FINITE_TRACE))
    return service.run(FINITE_TRACE)


@pytest.mark.parametrize(
    "service_s, energy_j, shown",
    [
        (math.nan, 1.0, "service_s=nan"),
        (math.inf, 1.0, "service_s=inf"),
        (-1.0, 1.0, "service_s=-1.0"),
        (2.0, math.nan, "energy_j=nan"),
        (2.0, math.inf, "energy_j=inf"),
        (2.0, -5.0, "energy_j=-5.0"),
    ],
    ids=["nan", "inf", "negative", "nan-energy", "inf-energy",
         "negative-energy"],
)
def test_an_unusable_estimate_fails_the_run_in_one_line(
    service_s, energy_j, shown
):
    with pytest.raises(ValueError) as info:
        serve_finite(PricedAt(service_s, energy_j))
    message = str(info.value)
    assert "\n" not in message
    assert FINITE_JOBS[0].label in message
    assert fleet_for(2, num_workers=16).chips[0].label in message
    assert shown in message
    assert "must be finite and >= 0" in message


def test_a_nan_retry_instant_fails_the_run_in_one_line():
    with pytest.raises(ValueError) as info:
        serve_finite(FakeCostModel(), source=NanBackoffSource, depth=1)
    message = str(info.value)
    assert "\n" not in message
    assert "nan" in message
    assert "must be finite" in message
    assert any(job.label in message for job in FINITE_JOBS)


def test_a_zero_estimate_still_runs():
    # 0 is finite and >= 0: the bound is inclusive.
    result = serve_finite(PricedAt(0.0, 0.0))
    assert result.report.completed == len(FINITE_JOBS)
