"""Trace analytics behind the paper's qualitative observations.

The paper's end-to-end findings are statements about *who waits for
whom*: "blank areas in the MME operating area", "TPC is obviously
busy", "no good overlap between MME and TPC". This module turns those
into measurable quantities over a :class:`~repro.synapse.trace.Timeline`:

* :func:`gap_overlap_fraction` — of engine A's idle time, how much
  coincides with engine B being busy (A waiting on B);
* :func:`overlap_fraction` — how much of the makespan both engines
  compute simultaneously (the "good overlap" of Fig 5);
* :func:`imbalance_index` — busy-time asymmetry between MME and TPC;
* :func:`bottleneck_report` — top sources per engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.costmodel import EngineKind
from ..synapse.trace import Interval, Timeline
from ..util.units import fmt_time_us


def _busy_intervals(timeline: Timeline, engine: EngineKind) -> list[Interval]:
    return [
        Interval(ev.start_us, ev.end_us, ev.name)
        for ev in timeline.engine_events(engine)
    ]


def _intersection(a: list[Interval], b: list[Interval]) -> float:
    """Total overlap between two sorted interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i].start, b[j].start)
        hi = min(a[i].end, b[j].end)
        if hi > lo:
            total += hi - lo
        if a[i].end <= b[j].end:
            i += 1
        else:
            j += 1
    return total


def gap_overlap_fraction(
    timeline: Timeline, idle_engine: EngineKind, busy_engine: EngineKind
) -> float:
    """Fraction of ``idle_engine``'s gaps during which ``busy_engine``
    is executing — "the MME is idle waiting for the TPC"."""
    gaps = timeline.gaps(idle_engine)
    total_gap = sum(g.duration for g in gaps)
    if total_gap <= 0:
        return 0.0
    busy = _busy_intervals(timeline, busy_engine)
    return _intersection(gaps, busy) / total_gap


def overlap_fraction(timeline: Timeline) -> float:
    """Fraction of the makespan where MME and TPC compute simultaneously."""
    total = timeline.total_time_us
    if total <= 0:
        return 0.0
    return _intersection(
        _busy_intervals(timeline, EngineKind.MME),
        _busy_intervals(timeline, EngineKind.TPC),
    ) / total


def imbalance_index(timeline: Timeline) -> float:
    """|busy_MME - busy_TPC| / (busy_MME + busy_TPC) in [0, 1].

    0 means perfectly balanced engines; 1 means one engine does all the
    work — the paper's "workload between MME and TPC is unbalanced".
    """
    mme = timeline.busy_time_us(EngineKind.MME)
    tpc = timeline.busy_time_us(EngineKind.TPC)
    if mme + tpc <= 0:
        return 0.0
    return abs(mme - tpc) / (mme + tpc)


@dataclass(frozen=True)
class BottleneckEntry:
    """One attributed slice of an engine's busy time."""

    src: str
    busy_us: float
    share: float


def bottleneck_report(
    timeline: Timeline, engine: EngineKind, *, top: int = 5
) -> list[BottleneckEntry]:
    """Top sources of busy time on ``engine``, largest first."""
    busy = timeline.busy_time_us(engine)
    if busy <= 0:
        return []
    by_src = sorted(
        timeline.busy_by_src(engine).items(), key=lambda kv: kv[1], reverse=True
    )
    return [
        BottleneckEntry(src, us, us / busy) for src, us in by_src[:top]
    ]


def describe_insights(timeline: Timeline) -> str:
    """Multi-line narrative of the §3/§4-style observations."""
    lines = []
    mme_idle = timeline.idle_fraction(EngineKind.MME)
    tpc_idle = timeline.idle_fraction(EngineKind.TPC)
    lines.append(
        f"MME idle {mme_idle:.1%} / TPC idle {tpc_idle:.1%} "
        f"(imbalance index {imbalance_index(timeline):.2f})"
    )
    waiting = gap_overlap_fraction(timeline, EngineKind.MME, EngineKind.TPC)
    lines.append(
        f"{waiting:.1%} of MME idle time coincides with TPC execution"
    )
    lines.append(
        f"simultaneous MME+TPC compute covers "
        f"{overlap_fraction(timeline):.1%} of the makespan"
    )
    for engine in (EngineKind.MME, EngineKind.TPC):
        entries = bottleneck_report(timeline, engine, top=3)
        if entries:
            detail = ", ".join(
                f"{e.src} {e.share:.0%} ({fmt_time_us(e.busy_us)})"
                for e in entries
            )
            lines.append(f"{engine.value} busy time: {detail}")
    return "\n".join(lines)
