"""Unit + property tests for the DES core (engine timelines)."""

import pytest
from hypothesis import given, strategies as st

from repro.hw import EngineTimeline, Interval
from repro.util.errors import ExecutionError


class TestEngineTimeline:
    def test_reserve_sequencing(self):
        tl = EngineTimeline("MME")
        a = tl.reserve(0.0, 10.0, "op1")
        b = tl.reserve(5.0, 10.0, "op2")  # engine busy until 10
        assert (a.start, a.end) == (0.0, 10.0)
        assert (b.start, b.end) == (10.0, 20.0)

    def test_gap_when_waiting_on_dependency(self):
        tl = EngineTimeline("MME")
        tl.reserve(0.0, 10.0, "op1")
        tl.reserve(25.0, 5.0, "op2")  # dependency ready at 25
        gaps = tl.gaps()
        assert gaps == [Interval(10.0, 25.0, "idle")]

    def test_utilization(self):
        tl = EngineTimeline("TPC")
        tl.reserve(0.0, 10.0)
        tl.reserve(30.0, 10.0)
        assert tl.utilization() == pytest.approx(0.5)
        assert tl.busy_time() == pytest.approx(20.0)

    def test_utilization_empty(self):
        assert EngineTimeline("X").utilization() == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ExecutionError):
            EngineTimeline("X").reserve(0.0, -1.0)

    def test_reset(self):
        tl = EngineTimeline("X")
        tl.reserve(0.0, 5.0)
        tl.reset()
        assert tl.free_at == 0.0
        assert tl.intervals == []

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e5),
                st.floats(min_value=0, max_value=1e4),
            ),
            max_size=40,
        )
    )
    def test_invariant_no_overlap(self, reservations):
        """Core hardware invariant: one op at a time per engine."""
        tl = EngineTimeline("E")
        for earliest, duration in reservations:
            tl.reserve(earliest, duration)
        ivs = tl.intervals
        for prev, nxt in zip(ivs, ivs[1:]):
            assert nxt.start >= prev.end

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e5),
                st.floats(min_value=0, max_value=1e4),
            ),
            max_size=40,
        )
    )
    def test_invariant_busy_plus_gaps_covers_horizon(self, reservations):
        tl = EngineTimeline("E")
        for earliest, duration in reservations:
            tl.reserve(earliest, duration)
        horizon = tl.free_at
        total_gap = sum(g.duration for g in tl.gaps(horizon))
        assert total_gap + tl.busy_time(horizon) == pytest.approx(
            horizon, abs=1e-6
        )
