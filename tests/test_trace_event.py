"""The TraceEvent record contract, per-card occupancy queries and the
engine invariants the trace answers."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.hw.costmodel import EngineKind
from repro.synapse import Timeline, TraceEvent, validate_no_engine_overlap

FIELDS = (
    "name", "engine", "start_us", "dur_us", "src", "scope", "flops",
    "hbm_bytes", "hbm_gbps", "contention_stall_us", "card",
)
DEFAULTS = {
    "src": "", "scope": "", "flops": 0.0, "hbm_bytes": 0.0,
    "hbm_gbps": 0.0, "contention_stall_us": 0.0, "card": 0,
}


def full_event(**overrides):
    values = dict(
        name="mm", engine=EngineKind.MME, start_us=1.5, dur_us=2.25,
        src="matmul", scope="gpt.h0", flops=3.0, hbm_bytes=4.0,
        hbm_gbps=5.0, contention_stall_us=0.5, card=3,
    )
    values.update(overrides)
    return TraceEvent(**values)


class TestTraceEventContract:
    def test_field_names_and_order(self):
        assert TraceEvent._fields == FIELDS

    def test_defaults(self):
        assert TraceEvent._field_defaults == DEFAULTS
        ev = TraceEvent("a", EngineKind.TPC, 0.0, 1.0)
        for name, value in DEFAULTS.items():
            assert getattr(ev, name) == value

    def test_positional_order_matches_keywords(self):
        ev = full_event()
        assert TraceEvent(*(getattr(ev, f) for f in FIELDS)) == ev

    def test_end_us(self):
        assert full_event().end_us == 1.5 + 2.25

    @pytest.mark.parametrize("field", FIELDS)
    def test_fields_are_read_only(self, field):
        ev = full_event()
        with pytest.raises(AttributeError):
            setattr(ev, field, getattr(ev, field))

    def test_equal_values_equal_events_and_hashes(self):
        a, b = full_event(), full_event()
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert full_event(card=4) != a

    def test_equals_plain_tuple_of_same_values(self):
        ev = full_event()
        assert ev == tuple(getattr(ev, f) for f in FIELDS)

    def test_replace(self):
        ev = full_event()
        moved = ev._replace(card=7, start_us=9.0)
        assert moved.card == 7 and moved.start_us == 9.0
        assert moved._replace(card=3, start_us=1.5) == ev
        assert ev.card == 3

    def test_pickle_round_trip(self):
        ev = full_event()
        back = pickle.loads(pickle.dumps([ev]))[0]
        assert back == ev
        assert type(back) is TraceEvent
        assert back.engine is EngineKind.MME


def two_card_timeline():
    """Card 1 repeats card 0's trace; card 2 has a busier MME."""
    card0 = [
        TraceEvent("a", EngineKind.MME, 0.0, 10.0),
        TraceEvent("b", EngineKind.TPC, 10.0, 20.0),
        TraceEvent("c", EngineKind.MME, 30.0, 10.0),
    ]
    card1 = [ev._replace(card=1) for ev in card0]
    card2 = [TraceEvent("d", EngineKind.MME, 0.0, 30.0, card=2)]
    return Timeline(card0 + card1 + card2)


class TestPerCardOccupancy:
    def test_defaults_read_card_zero(self):
        tl = two_card_timeline()
        assert tl.total_time_us == 40.0
        assert tl.utilization(EngineKind.MME) == 0.5
        assert tl.idle_us(EngineKind.MME) == 20.0
        assert tl.idle_fraction(EngineKind.MME) == 0.5
        assert [(g.start, g.end) for g in tl.gaps(EngineKind.MME)] == [
            (10.0, 30.0)
        ]

    def test_each_card_is_read_alone(self):
        tl = two_card_timeline()
        assert tl.utilization(EngineKind.MME, card=1) == 0.5
        assert tl.utilization(EngineKind.MME, card=2) == 0.75
        assert tl.idle_us(EngineKind.MME, card=2) == 10.0
        assert tl.idle_fraction(EngineKind.TPC, card=2) == 1.0
        assert [(g.start, g.end) for g in tl.gaps(EngineKind.MME, card=2)] == [
            (30.0, 40.0)
        ]
        assert tl.idle_us(EngineKind.MME, until="last_compute", card=2) == 10.0

    def test_busy_time_still_sums_every_card(self):
        assert two_card_timeline().busy_time_us(EngineKind.MME) == 70.0

    def test_single_card_matches_the_cross_card_formulas(self):
        tl = Timeline([
            TraceEvent("a", EngineKind.MME, 0.1, 0.7),
            TraceEvent("b", EngineKind.MME, 1.3, 0.2),
            TraceEvent("c", EngineKind.TPC, 0.0, 1.9),
        ])
        for engine in (EngineKind.MME, EngineKind.TPC, EngineKind.DMA):
            assert tl.utilization(engine) == (
                tl.busy_time_us(engine) / tl.total_time_us
            )
            horizon = tl.total_time_us
            busy = sum(
                min(ev.end_us, horizon) - min(ev.start_us, horizon)
                for ev in tl.events if ev.engine is engine
            )
            assert tl.idle_us(engine) == max(0.0, horizon - busy)


#: (earliest start, duration) requests one engine serves in order
requests = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e5),
        st.floats(min_value=0, max_value=1e4),
    ),
    max_size=40,
)


def serialized(reqs, engine=EngineKind.MME, card=0):
    """Events of one engine that runs one op at a time: each starts at
    its requested time or when the previous op ends, if later."""
    events, free = [], 0.0
    for i, (earliest, duration) in enumerate(reqs):
        start = max(earliest, free)
        events.append(TraceEvent(f"op{i}", engine, start, duration, card=card))
        free = start + duration
    return events


class TestEngineInvariants:
    @given(requests, requests)
    def test_no_overlap_per_card_engine(self, a, b):
        """Core hardware invariant: one op at a time per engine and
        card; other engines and cards run concurrently."""
        validate_no_engine_overlap(Timeline(
            serialized(a) + serialized(b, EngineKind.TPC)
            + serialized(b, card=1)
        ))

    @given(requests)
    def test_busy_plus_gaps_covers_horizon(self, reqs):
        tl = Timeline(serialized(reqs))
        horizon = tl.total_time_us
        gaps = sum(g.duration for g in tl.gaps(EngineKind.MME))
        assert gaps + tl.busy_time_us(EngineKind.MME) == pytest.approx(
            horizon, abs=1e-6
        )
        assert tl.idle_us(EngineKind.MME) == pytest.approx(gaps, abs=1e-6)
