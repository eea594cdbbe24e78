"""Discrete-event simulation primitives.

:class:`EngineTimeline` is a single-server resource that can only run
one op at a time (an MME, the TPC cluster as scheduled by SynapseAI, a
DMA channel); it allocates non-overlapping busy intervals and answers
utilization/gap queries afterwards. The "blank areas in the MME
operating area" that the paper keeps pointing at (Figs 4, 6, 8, 9) are
exactly the gaps of an :class:`EngineTimeline`. The runtime's event
loop keeps its own heaps (:mod:`repro.synapse.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import ExecutionError


@dataclass(frozen=True)
class Interval:
    """A closed-open busy interval [start, end) tagged with a label."""

    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        """Length of the interval in microseconds."""
        return self.end - self.start


class EngineTimeline:
    """Single-server busy-interval ledger for one engine.

    Ops are appended in non-decreasing start order (the runtime issues
    per-engine work in order); the class enforces that intervals never
    overlap, which is the core hardware invariant — one MME, one DMA
    channel, and one TPC-cluster schedule slot at a time.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._intervals: list[Interval] = []
        self._free_at = 0.0

    @property
    def free_at(self) -> float:
        """Earliest time the engine can start new work."""
        return self._free_at

    @property
    def intervals(self) -> list[Interval]:
        """Busy intervals recorded so far (chronological)."""
        return list(self._intervals)

    def reserve(self, earliest: float, duration: float, label: str = "") -> Interval:
        """Allocate the next busy interval starting no earlier than ``earliest``.

        Returns the allocated interval; the start is ``max(earliest,
        free_at)`` so the engine never runs two ops at once.
        """
        if duration < 0:
            raise ExecutionError(
                f"{self.name}: negative duration {duration} for {label!r}"
            )
        start = max(earliest, self._free_at)
        interval = Interval(start, start + duration, label)
        self._intervals.append(interval)
        self._free_at = interval.end
        return interval

    def mirror(self, interval: Interval) -> None:
        """Append an interval reserved on a symmetric twin timeline.

        The replicated-card fast path: when N identical timelines
        replay one deterministic reservation stream, the intervals are
        equal by construction, so the twins share the frozen
        :class:`Interval` instead of re-deriving it. The caller
        guarantees ``interval.start >= free_at`` (the runtime's
        ``t0 = max(card.now)`` invariant).
        """
        self._intervals.append(interval)
        self._free_at = interval.end

    def reserve_started(
        self, start: float, duration: float, label: str = ""
    ) -> Interval:
        """:meth:`reserve` for a caller that guarantees ``start >=
        free_at`` and ``duration >= 0``.

        The epoch-driven loop starts ops at the global clock, which
        never trails the engine's ``free_at`` (the ``t0 =
        max(card.now)`` invariant), so the clamp and the validation are
        dead — this skips them plus the frozen-dataclass construction
        tax, producing the identical interval.
        """
        interval = Interval.__new__(Interval)
        interval.__dict__.update(
            start=start, end=start + duration, label=label
        )
        self._intervals.append(interval)
        self._free_at = interval.end
        return interval

    @property
    def interval_count(self) -> int:
        """Number of intervals recorded so far (a cheap mark for
        :meth:`intervals_since`)."""
        return len(self._intervals)

    def intervals_since(self, count: int) -> list[Interval]:
        """The intervals appended after the first ``count`` — what a
        run added past a mark taken with :attr:`interval_count`."""
        return self._intervals[count:]

    def mirror_many(self, intervals: list[Interval]) -> None:
        """Bulk :meth:`mirror`: replay a twin's whole chronological
        reservation stream in one append (same end state as mirroring
        each interval as it was reserved)."""
        if intervals:
            self._intervals.extend(intervals)
            self._free_at = intervals[-1].end

    def busy_time(self, until: float | None = None) -> float:
        """Total busy microseconds (optionally clipped to ``until``)."""
        total = 0.0
        for iv in self._intervals:
            end = iv.end if until is None else min(iv.end, until)
            if end > iv.start:
                total += end - iv.start
        return total

    def gaps(self, horizon: float | None = None) -> list[Interval]:
        """Idle intervals between time 0 and ``horizon`` (default: free_at)."""
        horizon = self._free_at if horizon is None else horizon
        out: list[Interval] = []
        cursor = 0.0
        for iv in self._intervals:
            if iv.start > cursor:
                out.append(Interval(cursor, min(iv.start, horizon), "idle"))
            cursor = max(cursor, iv.end)
            if cursor >= horizon:
                break
        if cursor < horizon:
            out.append(Interval(cursor, horizon, "idle"))
        return [g for g in out if g.duration > 0]

    def utilization(self, horizon: float | None = None) -> float:
        """busy / horizon in [0, 1]; 0.0 for an empty horizon."""
        horizon = self._free_at if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time(until=horizon) / horizon)

    def reset(self) -> None:
        """Clear all recorded intervals."""
        self._intervals.clear()
        self._free_at = 0.0
