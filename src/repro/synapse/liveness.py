"""Shared liveness analysis over a scheduled op list.

One implementation of the HBM-footprint computation, used by both the
compiler's :class:`~repro.synapse.passes.memory.MemoryPlanningPass`
(to plan and enforce the budget) and the post-execution
:func:`~repro.synapse.memtrace.memory_timeline` view (to reconstruct
the occupancy curve) — the two must agree on every byte, and tests
cross-check them on the paper-scale graphs.

Liveness is *interval based*: a value id may be written more than once
in a planned schedule (a ``spill_in`` restores it, a recompute clone
re-materializes it), so each vid owns a list of live intervals over
schedule positions. For the common single-writer schedule this reduces
exactly to the historical "alloc at the write, free after the last
read" rule:

* a value read at least once frees right after its last read in the
  current write window;
* a terminal value (never read after its final write) stays live to
  the end of the run — it is an output;
* a *dropped* value (re-written later with no read in between, the
  checkpointing case) frees immediately at its write;
* graph inputs (params, consts, step inputs) are persistent;
* values internal to fused elementwise chains never reach HBM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import Graph
from .schedule import ScheduledOp


class LiveInterval(NamedTuple):
    """One live span of a value: write position to free position.

    ``end`` is the schedule position *after which* the value frees
    (its last read in the window); ``None`` means the value never
    frees — it is live to the end of the run. A ``NamedTuple``: every
    liveness walk builds one per allocated value.
    """

    vid: int
    start: int
    end: int | None

    def covers(self, pos: int) -> bool:
        """Whether the value is live at schedule position ``pos``."""
        return self.start <= pos and (self.end is None or pos <= self.end)


@dataclass
class LivenessResult:
    """Footprint of one scheduled op list, by schedule position."""

    persistent_bytes: int
    peak_bytes: int
    #: schedule position at which the peak is sampled (-1: the peak is
    #: the persistent set alone, before any op runs)
    peak_index: int
    #: per-vid live intervals, in increasing ``start`` order
    intervals: dict[int, list[LiveInterval]] = field(default_factory=dict)
    #: live bytes sampled right after each op's writes land
    live_at: list[int] = field(default_factory=list)
    #: position -> vids allocated there (counted before the sample)
    allocs_at: dict[int, list[int]] = field(default_factory=dict)
    #: position -> vids freed there (released after the sample)
    frees_at: dict[int, list[int]] = field(default_factory=dict)
    #: vid -> position after which it finally frees (the last
    #: interval's end; vids that never free are absent) — the compact
    #: map :class:`~repro.synapse.schedule.MemoryPlan` carries
    free_after: dict[int, int] = field(default_factory=dict)
    #: values internal to fused chains (never materialized in HBM)
    fused_internal: set[int] = field(default_factory=set)

    def live_vids_at(self, pos: int) -> set[int]:
        """Value ids live at schedule position ``pos``."""
        return {
            vid
            for vid, spans in self.intervals.items()
            if any(s.covers(pos) for s in spans)
        }


def fused_internal_values(graph: Graph, ops: list[ScheduledOp]) -> set[int]:
    """Values produced and consumed inside one fused chain.

    All but the final output of a multi-node op stay in TPC-local
    memory and never occupy HBM.
    """
    node_by_id = {n.nid: n for n in graph.nodes}
    internal: set[int] = set()
    for op in ops:
        if len(op.node_ids) > 1:
            outs = [node_by_id[nid].output for nid in op.node_ids]
            internal.update(outs[:-1])
    return internal


def compute_liveness(graph: Graph, ops: list[ScheduledOp]) -> LivenessResult:
    """Interval liveness + peak walk over ``ops`` in list order."""
    inputs = graph.graph_inputs()
    persistent = sum(v.nbytes for v in inputs)
    graph_input_ids = {v.vid for v in inputs}
    internal = fused_internal_values(graph, ops)

    writes_of: dict[int, list[int]] = {}
    reads_of: dict[int, list[int]] = {}
    for pos, op in enumerate(ops):
        for vid in op.reads:
            reads_of.setdefault(vid, []).append(pos)
        for vid in op.writes:
            writes_of.setdefault(vid, []).append(pos)

    result = LivenessResult(
        persistent_bytes=persistent, peak_bytes=persistent, peak_index=-1,
        fused_internal=internal,
    )
    intervals = result.intervals
    allocs_at = result.allocs_at
    frees_at = result.frees_at
    # each allocated value's bytes, read once for the walk below
    nbytes_of: dict[int, int] = {}
    for vid, wpos in writes_of.items():
        if vid in graph_input_ids or vid in internal:
            continue
        nbytes_of[vid] = graph.value(vid).nbytes
        # positions are appended in schedule order: ascending
        rpos = reads_of.get(vid, ())
        if len(wpos) == 1:
            # the common single-writer value: live from its write to
            # its last read, or to the end of the run if never read
            w = wpos[0]
            end = rpos[-1] if rpos and rpos[-1] >= w else None
            spans = [LiveInterval(vid, w, end)]
        else:
            spans = []
            for i, w in enumerate(wpos):
                nxt = wpos[i + 1] if i + 1 < len(wpos) else None
                window = [
                    r for r in rpos if r >= w and (nxt is None or r < nxt)
                ]
                if window:
                    end = max(window)
                elif nxt is None:
                    end = None  # terminal value: an output, never freed
                else:
                    end = w  # dropped: re-written later, frees at once
                spans.append(LiveInterval(vid, w, end))
        intervals[vid] = spans
        for span in spans:
            allocs_at.setdefault(span.start, []).append(vid)
            if span.end is not None:
                frees_at.setdefault(span.end, []).append(vid)
        if end is not None:
            result.free_after[vid] = end

    live = persistent
    peak = persistent
    peak_index = -1
    live_at = result.live_at
    for pos in range(len(ops)):
        for vid in allocs_at.get(pos, ()):
            live += nbytes_of[vid]
        if live > peak:
            peak = live
            peak_index = pos
        live_at.append(live)
        for vid in frees_at.get(pos, ()):
            live -= nbytes_of[vid]
    result.peak_bytes = peak
    result.peak_index = peak_index
    return result
