"""Hardware trace events and timeline analysis.

The SynapseAI profiler "generate[s] hardware trace events and
accurately measure[s] the execution time of each operation" (§3.2);
every figure in the paper is a rendering of such a trace. This module
is the data model: :class:`TraceEvent` per executed op and
:class:`Timeline` for the queries the paper performs on them — MME idle
gaps (Figs 4/6/8/9), softmax's share of TPC busy time (Fig 4), total
run time per attention variant (Figs 5/6/7).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from ..hw.costmodel import EngineKind
from ..util.errors import ExecutionError


@dataclass(frozen=True)
class Interval:
    """A closed-open interval [start, end) tagged with a label — an
    engine's busy span or one of its idle gaps."""

    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        """Length of the interval in microseconds."""
        return self.end - self.start


class TraceEvent(NamedTuple):
    """One op execution on one engine.

    A named tuple: one compact record per event, immutable, hashable,
    picklable, and equal to a plain tuple of the same values.
    """

    name: str
    engine: EngineKind
    start_us: float
    dur_us: float
    src: str = ""
    scope: str = ""
    flops: float = 0.0
    #: HBM traffic the op drained (bytes); populated by the contended
    #: runtime, 0.0 under ``hbm_contention=False``
    hbm_bytes: float = 0.0
    #: mean achieved HBM bandwidth over the op's drain phase (GB/s)
    hbm_gbps: float = 0.0
    #: active time beyond the uncontended ``max(compute, traffic/bw)``
    #: — what sharing the HBM with concurrent ops cost this op
    contention_stall_us: float = 0.0
    #: HLS-1 card the event executed on (0 on a single-card run); maps
    #: to the Chrome-trace pid so Perfetto shows one row per card
    card: int = 0

    @property
    def end_us(self) -> float:
        """Completion time."""
        return self.start_us + self.dur_us


class Timeline:
    """An executed trace: events + derived occupancy queries."""

    def __init__(
        self,
        events: list[TraceEvent] | None = None,
        name: str = "trace",
        *,
        validate: bool = True,
    ):
        """``validate=False`` skips the negative-duration scan — for
        the runtime, whose op durations are non-negative by
        construction (cost models price work at >= 0 and
        :class:`~repro.synapse.compiler.CompilerOptions` rejects a
        negative recompile penalty)."""
        self.name = name
        self.events: list[TraceEvent] = []
        if events:
            if validate:
                for ev in events:
                    if ev.dur_us < 0:
                        raise ExecutionError(
                            f"negative duration for event {ev.name!r}"
                        )
            self.events.extend(events)

    def add(self, event: TraceEvent) -> None:
        """Append an event (negative durations are runtime bugs)."""
        if event.dur_us < 0:
            raise ExecutionError(f"negative duration for event {event.name!r}")
        self.events.append(event)

    # -- global queries -----------------------------------------------------

    @property
    def total_time_us(self) -> float:
        """Makespan: last completion time (0 for an empty trace)."""
        return max((ev.end_us for ev in self.events), default=0.0)

    def engine_events(
        self, engine: EngineKind, *, card: int | None = None
    ) -> list[TraceEvent]:
        """Events of one engine (optionally one card), by start time."""
        return sorted(
            (
                ev for ev in self.events
                if ev.engine is engine and (card is None or ev.card == card)
            ),
            key=lambda ev: (ev.start_us, ev.end_us),
        )

    def busy_time_us(self, engine: EngineKind) -> float:
        """Total busy microseconds of ``engine`` (events never overlap
        on one engine *of one card*, so a plain sum is exact; on a
        multi-card trace this aggregates across cards)."""
        return sum(ev.dur_us for ev in self.events if ev.engine is engine)

    def cards(self) -> list[int]:
        """Distinct card ids present in the trace, sorted."""
        return sorted({ev.card for ev in self.events})

    def exposed_comm_us(self, *, card: int = 0) -> float:
        """NIC busy time on ``card`` not hidden under MME/TPC compute.

        The communication the training step actually waits for: union
        of the card's NIC intervals minus its compute-engine busy
        union. Perfect overlap drives this to ~0 even when collectives
        move gigabytes.
        """
        nic_raw: list[tuple[float, float]] = []
        compute_raw: list[tuple[float, float]] = []
        mme, tpc, nic_kind = EngineKind.MME, EngineKind.TPC, EngineKind.NIC
        for ev in self.events:
            if ev.card != card:
                continue
            engine = ev.engine
            if engine is nic_kind:
                nic_raw.append((ev.start_us, ev.start_us + ev.dur_us))
            elif engine is mme or engine is tpc:
                compute_raw.append((ev.start_us, ev.start_us + ev.dur_us))
        nic = _merge_intervals(nic_raw)
        compute = _merge_intervals(compute_raw)
        total = sum(hi - lo for lo, hi in nic)
        return total - _overlap_us(nic, compute)

    def utilization(self, engine: EngineKind, *, card: int = 0) -> float:
        """busy / makespan for ``engine`` on ``card``."""
        total = self.total_time_us
        if total <= 0:
            return 0.0
        busy = sum(
            ev.dur_us for ev in self.events
            if ev.engine is engine and ev.card == card
        )
        return busy / total

    def last_compute_end_us(self) -> float:
        """Completion time of the last MME/TPC event.

        The natural horizon for overlap metrics: after the final
        compute op only the DMA drain (and collectives) remain, so
        idle measured against the full makespan dilutes the numbers
        with time no scheduler could possibly fill. Falls back to the
        makespan when the trace has no compute events.
        """
        end = max(
            (ev.end_us for ev in self.events
             if ev.engine in (EngineKind.MME, EngineKind.TPC)),
            default=0.0,
        )
        return end if end > 0 else self.total_time_us

    def _horizon_us(self, until: str) -> float:
        if until == "makespan":
            return self.total_time_us
        if until == "last_compute":
            return self.last_compute_end_us()
        raise ExecutionError(
            f"unknown idle horizon {until!r} "
            "(expected 'makespan' or 'last_compute')"
        )

    def idle_us(
        self, engine: EngineKind, *, until: str = "makespan", card: int = 0
    ) -> float:
        """Idle microseconds of ``engine`` on ``card`` within [0, horizon).

        ``until="last_compute"`` stops the clock at the final MME/TPC
        completion instead of the trailing DMA drain — the horizon the
        overlap scheduler can actually influence. Busy time is clipped
        to the horizon, so the result is never negative.
        """
        horizon = self._horizon_us(until)
        if horizon <= 0:
            return 0.0
        busy = sum(
            min(ev.end_us, horizon) - min(ev.start_us, horizon)
            for ev in self.events
            if ev.engine is engine and ev.card == card
        )
        return max(0.0, horizon - busy)

    def idle_fraction(
        self, engine: EngineKind, *, until: str = "makespan", card: int = 0
    ) -> float:
        """1 - utilization on ``card``: the paper's 'blank areas' metric.

        By default measured over the full makespan (what the paper's
        figures show); ``until="last_compute"`` measures against the
        last compute finish so the trailing DMA drain does not dilute
        overlap comparisons.
        """
        horizon = self._horizon_us(until)
        if horizon <= 0:
            return 1.0 - self.utilization(engine, card=card)
        return self.idle_us(engine, until=until, card=card) / horizon

    def gaps(
        self, engine: EngineKind, *, min_dur_us: float = 0.0, card: int = 0
    ) -> list[Interval]:
        """Idle intervals of ``engine`` on ``card`` within [0, makespan)."""
        horizon = self.total_time_us
        events = self.engine_events(engine, card=card)
        out: list[Interval] = []
        cursor = 0.0
        for ev in events:
            if ev.start_us > cursor:
                out.append(Interval(cursor, ev.start_us, "idle"))
            cursor = max(cursor, ev.end_us)
        if cursor < horizon:
            out.append(Interval(cursor, horizon, "idle"))
        return [g for g in out if g.duration > min_dur_us]

    # -- attribution ---------------------------------------------------------

    def busy_by_src(self, engine: EngineKind | None = None) -> dict[str, float]:
        """Busy microseconds grouped by source op (e.g. 'softmax')."""
        out: dict[str, float] = {}
        for ev in self.events:
            if engine is not None and ev.engine is not engine:
                continue
            out[ev.src or ev.name] = out.get(ev.src or ev.name, 0.0) + ev.dur_us
        return out

    def src_share(self, src: str, engine: EngineKind) -> float:
        """Fraction of ``engine`` busy time attributed to ``src``.

        ``src_share('softmax', TPC)`` is the Fig 4 headline number
        ("the running time of softmax exceeds 80% of the total running
        time" of the TPC).
        """
        busy = self.busy_time_us(engine)
        if busy <= 0:
            return 0.0
        attributed = sum(
            ev.dur_us
            for ev in self.events
            if ev.engine is engine and ev.src == src
        )
        return attributed / busy

    def top_events(self, n: int = 10) -> list[TraceEvent]:
        """The ``n`` longest events."""
        return sorted(self.events, key=lambda ev: ev.dur_us, reverse=True)[:n]

    # -- composition / export -------------------------------------------------

    def window(self, t0_us: float, t1_us: float) -> "Timeline":
        """Events clipped to [t0, t1): per-region analysis (e.g. 'the
        transformer-layer stretch of an end-to-end trace')."""
        if t1_us < t0_us:
            raise ExecutionError(f"bad window [{t0_us}, {t1_us})")
        out = Timeline(name=f"{self.name}[{t0_us:.0f}:{t1_us:.0f}]")
        for ev in self.events:
            lo = max(ev.start_us, t0_us)
            hi = min(ev.end_us, t1_us)
            if hi > lo:
                out.add(TraceEvent(ev.name, ev.engine, lo, hi - lo,
                                   ev.src, ev.scope, ev.flops,
                                   ev.hbm_bytes, ev.hbm_gbps,
                                   ev.contention_stall_us, ev.card))
        return out

    def filter(
        self,
        *,
        scope_prefix: str | None = None,
        src: str | None = None,
        engine: EngineKind | None = None,
    ) -> "Timeline":
        """A sub-trace matching all the given predicates."""
        out = Timeline(name=f"{self.name}|filtered")
        for ev in self.events:
            if scope_prefix is not None and not ev.scope.startswith(
                scope_prefix
            ):
                continue
            if src is not None and ev.src != src:
                continue
            if engine is not None and ev.engine is not engine:
                continue
            out.add(ev)
        return out

    def scope_span(self, scope_prefix: str) -> tuple[float, float]:
        """[first start, last end) of events under ``scope_prefix``;
        (0, 0) when nothing matches."""
        matching = [
            ev for ev in self.events if ev.scope.startswith(scope_prefix)
        ]
        if not matching:
            return (0.0, 0.0)
        return (min(ev.start_us for ev in matching),
                max(ev.end_us for ev in matching))

    def shifted(self, offset_us: float) -> "Timeline":
        """A copy with every event moved later by ``offset_us``."""
        return Timeline(
            [
                TraceEvent(
                    ev.name, ev.engine, ev.start_us + offset_us, ev.dur_us,
                    ev.src, ev.scope, ev.flops,
                    ev.hbm_bytes, ev.hbm_gbps, ev.contention_stall_us,
                    ev.card,
                )
                for ev in self.events
            ],
            name=self.name,
        )

    def to_chrome_trace(self) -> str:
        """Export as a chrome://tracing / Perfetto JSON string."""
        rows = [
            {
                "name": ev.name,
                "cat": ev.src or ev.name,
                "ph": "X",
                "ts": ev.start_us,
                "dur": ev.dur_us,
                "pid": ev.card,
                "tid": ev.engine.value,
                "args": {
                    "scope": ev.scope,
                    "flops": ev.flops,
                    "hbm_bytes": ev.hbm_bytes,
                    "hbm_gbps": ev.hbm_gbps,
                    "contention_stall_us": ev.contention_stall_us,
                },
            }
            for ev in self.events
        ]
        return json.dumps({"traceEvents": rows, "displayTimeUnit": "ms"})

    def __len__(self) -> int:
        return len(self.events)


def _merge_intervals(
    pairs: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Sorted union of half-open intervals."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _overlap_us(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    """Total intersection length of two sorted disjoint interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def validate_no_engine_overlap(timeline: Timeline) -> None:
    """Assert the hardware invariant: one op at a time per engine.

    Checked per (card, engine) — on a multi-card trace the same engine
    legitimately runs concurrently on different cards. Raises
    :class:`ExecutionError` on violation — used by tests and by the
    runtime's self-check mode.
    """
    for card in timeline.cards():
        for engine in EngineKind:
            events = timeline.engine_events(engine, card=card)
            for prev, nxt in zip(events, events[1:]):
                if nxt.start_us < prev.end_us - 1e-9:
                    raise ExecutionError(
                        f"card {card} {engine.value}: events {prev.name!r} "
                        f"and {nxt.name!r} overlap "
                        f"({prev.end_us} > {nxt.start_us})"
                    )
