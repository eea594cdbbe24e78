"""Runtime: execute a compiled schedule on a simulated device.

Three issue disciplines, selected by
:attr:`~repro.synapse.compiler.CompilerOptions.scheduler`:

* **in-order** (default, what SynapseAI does): each engine issues its
  queue strictly in program order; an op starts when its engine is free
  AND its producers are done. Engines still overlap *across* queues —
  this is what produces both the good overlap of Fig 5 and the MME idle
  gaps of Figs 4/6/8/9.
* **reorder** (``--scheduler reorder``): an engine may start any
  *ready* op, earliest-ready first (ties by program order) — a greedy
  list scheduler standing in for a compiler that "detect[s]
  independence" (§3.3's Performer discussion). Issue order is planned
  once from the uncontended durations (a lazy min-heap keyed on
  (earliest start, program order)), then executed under whichever
  memory model is active.
* **lookahead** (``--scheduler lookahead``): a critical-path
  list scheduler. Ops are prioritized by *bottom level* (the longest
  uncontended dependency chain hanging off them), with an
  MME-starvation tiebreak: while the MME sits idle with nothing ready,
  other engines prefer ops whose downstream consumers feed the MME.
  This is what lets independent TPC chains (Performer's
  ``q_prime``/``k_prime``) and the ``tpc_slicing`` pass's row slices
  genuinely overlap with pending MME work.

All planned orders are topological, so any of them replays deadlock-
free under both memory models below.

Two memory models, selected by
:attr:`~repro.synapse.compiler.CompilerOptions.hbm_contention`:

* **contended** (default): HBM bandwidth is one shared resource. Each
  op's cost decomposes (:func:`op_cost_parts`) into a compute floor
  that runs at full speed regardless of traffic, HBM bytes that drain
  through the device-wide :class:`~repro.hw.bandwidth.BandwidthArbiter`
  at whatever share the arbiter grants, and a serial launch/fixed
  tail. The op finishes at ``max(compute done, bytes drained) +
  serial``; overlapping memory-bound phases stretch each other exactly
  as co-executing engines do on silicon.
* **uncontended** (``hbm_contention=False``, the pre-contention model):
  every engine sees the full effective bandwidth; op durations are the
  closed-form :func:`op_duration_us` and the timeline is reproduced
  event for event.

Durations come from the device's calibrated cost models; fused chains
sum member compute time and pay HBM traffic only for chain-external
reads (all members') plus the final write.

:class:`Runtime` (one card) and :class:`HLS1Runtime` (every card of an
HLS-1, plus the fabric) run the same execute body, :func:`_execute`.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, itemgetter

from ..hw.bandwidth import BandwidthArbiter, TwoTierFabric
from ..hw.costmodel import CostModel, CostParts, EngineKind, WorkItem
from ..hw.device import GaudiDevice, HLS1Device
from ..hw.interconnect import (
    CollectivePlan,
    collective_plan,
    hierarchical_collective_plan,
    p2p_plan,
    scale_plan,
)
from ..util.errors import ExecutionError
from ..util.gc_pause import gc_paused
from .schedule import Schedule, ScheduledOp
from .trace import Timeline, TraceEvent

#: slack when deciding an event time has been reached (us)
_TIME_EPS_US = 1e-9

def fused_chain_traffic_bytes(op: ScheduledOp) -> int:
    """HBM bytes a fused chain moves: all external reads + final write.

    Every member's chain-external reads count (the compiler records
    them in ``external_read_bytes``) — a middle op reading a graph
    input is real traffic even though its predecessor's output stayed
    on-chip. For chains built without that annotation, fall back to the
    first member's reads (the historical approximation).
    """
    reads = op.external_read_bytes
    if reads is None:
        reads = op.items[0].bytes_read
    return reads + op.items[-1].bytes_written


def op_duration_us(cost: CostModel, op: ScheduledOp) -> float:
    """Uncontended duration of a scheduled op (single or fused chain)."""
    if not op.items:
        raise ExecutionError(f"scheduled op {op.label!r} has no work items")
    if len(op.items) == 1:
        return cost.time_us(op.engine, op.items[0])
    return op_cost_parts(cost, op).uncontended_time_us(cost.mem_bandwidth)


#: calibrations x engines a work item keeps prices for; pricing one
#: more clears the item's memo first, so it never grows past this
_PRICES_PER_ITEM = 8


def _recall(memo: list, key: str, slot):
    """The price an item's memo holds under ``(key, slot)``, or None.

    ``WorkItem.costs`` is a flat ``[key, slot, price, ...]`` list:
    nearly every item is priced under one calibration, and a three-slot
    list is a third the size of a one-entry dict.
    """
    for i in range(0, len(memo), 3):
        if memo[i + 1] is slot and memo[i] == key:
            return memo[i + 2]
    return None


def _remember(memo: list, key: str, slot, price) -> None:
    """Add ``price`` under ``(key, slot)`` to an item's memo."""
    if len(memo) >= 3 * _PRICES_PER_ITEM:
        memo.clear()
    memo += (key, slot, price)


def _item_parts(
    cost: CostModel, engine: EngineKind, item: WorkItem
) -> CostParts:
    """``item``'s decomposed cost on ``engine``, priced once per
    calibration and kept on the item."""
    key = cost.price_key
    parts = _recall(item.costs, key, engine)
    if parts is None:
        parts = cost.cost_parts(engine, item)
        _remember(item.costs, key, engine, parts)
    return parts


def _fused_compute_us(cost: CostModel, op: ScheduledOp) -> float:
    """Summed on-chip compute of a fused chain's members, launch-free.

    Each member's launch-free compute is priced once per calibration
    and kept on the item (engine slot ``None``), beside its
    :class:`CostParts`.
    """
    key = cost.price_key
    compute = 0.0
    for item in op.items:
        bare_us = _recall(item.costs, key, None)
        if bare_us is None:
            bare_us = _launch_free_us(cost, op.engine, item)
            _remember(item.costs, key, None, bare_us)
        compute += bare_us
    return compute


def _launch_free_us(
    cost: CostModel, engine: EngineKind, item: WorkItem
) -> float:
    """``item``'s on-chip compute on ``engine``, without traffic or launch."""
    bare = WorkItem(
        item.name, item.op_class, flops=item.flops, elements=item.elements,
        dtype=item.dtype, special_fn=item.special_fn,
    )
    return cost.time_us(engine, bare) - cost.fused_launch_us


def op_cost_parts(cost: CostModel, op: ScheduledOp) -> CostParts:
    """Decomposed cost of a scheduled op, for the contended runtime.

    Mirrors :func:`op_duration_us`: recomposing these parts at the full
    effective bandwidth reproduces the uncontended duration. Fused
    chains compute back to back on-chip, pay external traffic only at
    the chain edges (all members' external reads + the final write) and
    one launch total; how that traffic composes is the cost model's
    ``fused_parts`` decision (Gaudi: the shared-HBM channel; WSE: the
    wafer-SRAM drain, off the arbiter). Member prices come from the
    items' own memos, so a work item shared by many schedules is priced
    once per calibration.
    """
    if not op.items:
        raise ExecutionError(f"scheduled op {op.label!r} has no work items")
    if len(op.items) == 1:
        return _item_parts(cost, op.engine, op.items[0])
    fusion = cost.fusion_engine
    if op.engine is not fusion:
        raise ExecutionError(
            f"fused op {op.label!r} must be on {fusion.value}"
        )
    return cost.fused_parts(
        _fused_compute_us(cost, op),
        fused_chain_traffic_bytes(op),
        sum(item.fixed_time_us for item in op.items),
    )


@dataclass
class ExecutionResult:
    """Outcome of one schedule execution."""

    timeline: Timeline
    total_time_us: float
    start_offset_us: float
    schedule: Schedule
    peak_hbm_bytes: int = 0
    issue_order: list[int] = field(default_factory=list)
    #: time ops spent waiting on HBM beyond their uncontended drain
    #: (always 0.0 when executed with ``hbm_contention=False``)
    contention_stall_us: float = 0.0
    #: cards that executed the schedule (1 for a plain Runtime)
    num_cards: int = 1
    #: NIC busy time not hidden under MME/TPC compute on card 0 — the
    #: communication the step actually *waits* for
    exposed_comm_us: float = 0.0
    #: time the fabric arbiter had wire traffic draining
    fabric_busy_us: float = 0.0


class Runtime:
    """Executes compiled schedules on a :class:`GaudiDevice`."""

    def __init__(self, device: GaudiDevice | None = None):
        self.device = device or GaudiDevice()

    @gc_paused()
    def execute(
        self,
        schedule: Schedule,
        *,
        scheduler: str = "inorder",
        hbm_contention: bool = True,
    ) -> ExecutionResult:
        """Run ``schedule``; the device clock keeps advancing across calls.

        ``scheduler`` names the issue policy (``"inorder"``,
        ``"reorder"`` or ``"lookahead"``); ``hbm_contention`` picks the
        memory model (see the module docstring).
        """
        return _execute(
            self.device, 1, schedule,
            scheduler=scheduler, hbm_contention=hbm_contention,
        )


def _execute(
    device: GaudiDevice,
    ncards: int,
    schedule: Schedule,
    *,
    scheduler: str,
    hbm_contention: bool,
    plans: dict[int, CollectivePlan] | None = None,
    fabric: BandwidthArbiter | TwoTierFabric | None = None,
) -> ExecutionResult:
    """The one execute body, for one card or many.

    All ``ncards`` cards replay ``schedule`` in one planned issue order
    from ``t0 = device.now``; ``device``'s cost model prices every card,
    and its clock, the population's, moves to the latest end of any
    engine's last op.
    Collectives with a non-empty plan take the plan's analytic time in
    the planner and the uncontended replay, and drain through
    ``fabric`` in the contended loop; a plain :class:`Runtime` passes
    no plans and no fabric, so its NIC ops are ordinary cost-model ops
    and it reports no exposed communication.
    """
    t0 = device.now
    cost = device.cost_model
    # one cached cost walk serves both the planner and the fluid loop:
    # recomposing the parts at full bandwidth reproduces
    # :func:`op_duration_us` exactly (see :class:`CostParts`)
    prep = _schedule_prep(schedule, cost)
    durations = prep.durations
    if plans:
        durations = [
            plans[i].analytic_time_us
            if i in plans and plans[i].steps else d
            for i, d in enumerate(durations)
        ]
    order = _plan_order(
        schedule, durations, t0, scheduler,
        prep.consumers_of, prep.blocked_proto,
    )
    fabric_busy = 0.0
    if hbm_contention:
        events, stall_total, total = _fluid_execute_vector(
            cost, ncards, schedule, order, t0,
            prep=prep, fabric=fabric, plans=plans,
        )
        if fabric is not None:
            fabric_busy = fabric.busy_us()
    else:
        events, total = _replay_symmetric(
            ncards, schedule, order, durations, t0
        )
        stall_total = 0.0
    timeline = Timeline(events, name=schedule.graph.name, validate=False)
    exposed = 0.0
    if plans is not None:
        # card 0's events alone: the fluid loop emits them op-major
        # (each op's cards adjacent, card 0 first), the replay card-major
        card0 = (
            events[::ncards] if hbm_contention
            else events[:len(events) // ncards]
        )
        exposed = Timeline(card0, validate=False).exposed_comm_us()
    device.now = total
    return ExecutionResult(
        timeline=timeline,
        total_time_us=total - t0,
        start_offset_us=t0,
        schedule=schedule,
        peak_hbm_bytes=schedule.memory.peak_bytes,
        issue_order=order,
        contention_stall_us=stall_total,
        num_cards=ncards,
        exposed_comm_us=exposed,
        fabric_busy_us=fabric_busy,
    )


def _events_on(heads, cards) -> list[TraceEvent]:
    """Events from card-less ``heads`` (an event's first ten fields)
    and the matching ``cards`` (1-tuples), built in C:
    ``tuple.__new__`` skips the named tuple's Python-level ``__new__``."""
    return list(map(tuple.__new__, repeat(TraceEvent), map(add, heads, cards)))


def _replicate(
    heads: list[tuple],
    twin_heads: list[tuple],
    ncards: int,
    *,
    op_major: bool,
) -> list[TraceEvent]:
    """Every card's events: ``heads`` on card 0, ``twin_heads`` on each
    of cards ``1..ncards-1``.

    ``op_major`` interleaves them the way the fluid loop emits them
    (each op's cards adjacent, card 0 first); otherwise the cards
    follow each other, card 0 first, as the uncontended replay emits
    them.
    """
    card0 = _events_on(heads, repeat((0,)))
    if ncards == 1:
        return card0
    if op_major:
        events = [None] * (len(card0) * ncards)
        events[::ncards] = card0
        for c in range(1, ncards):
            events[c::ncards] = _events_on(twin_heads, repeat((c,)))
    else:
        events = card0
        for c in range(1, ncards):
            events += _events_on(twin_heads, repeat((c,)))
    return events


# -- issue-order planning -----------------------------------------------------


def _plan_order(
    schedule: Schedule,
    durations: list[float],
    t0: float,
    scheduler: str,
    consumers_of: list[list[int]],
    blocked_proto: list[int],
) -> list[int]:
    """Plan the issue order the ``scheduler`` policy prescribes.

    Every engine starts free at ``t0``, the device clock; no engine
    can be busy past it. ``consumers_of`` and ``blocked_proto`` are
    the schedule's dependency graph (:func:`_dep_graph`, cached on the
    prep), which the planners read without mutating.
    """
    if scheduler == "inorder":
        return [op.index for op in schedule.ops]
    if scheduler == "reorder":
        return _plan_reorder(
            schedule, durations, t0, consumers_of, blocked_proto
        )
    if scheduler == "lookahead":
        return _plan_lookahead(
            schedule, durations, t0, consumers_of, blocked_proto
        )
    raise ExecutionError(
        f"unknown scheduler {scheduler!r} "
        "(expected 'inorder', 'reorder' or 'lookahead')"
    )


def _dep_graph(schedule: Schedule) -> tuple[list[list[int]], list[int]]:
    """(consumers per op, number of distinct deps per op)."""
    n = len(schedule.ops)
    consumers_of: list[list[int]] = [[] for _ in range(n)]
    blocked_by = [0] * n
    for op in schedule.ops:
        deps = set(op.deps)
        blocked_by[op.index] = len(deps)
        for dep in deps:
            consumers_of[dep].append(op.index)
    return consumers_of, blocked_by


def _plan_reorder(
    schedule: Schedule,
    durations: list[float],
    t0: float,
    consumers_of: list[list[int]],
    blocked_proto: list[int],
) -> list[int]:
    """Greedy earliest-start issue order (ties by program order).

    A lazy min-heap keyed on ``(earliest start, index)``: an entry's
    key is computed against its engine's free time at push, which
    only grows, so stored keys are lower bounds. Popping the min
    and re-pushing when stale selects exactly the op the former
    O(n²) ready-set scan selected, in O(n log n).
    """
    n = len(schedule.ops)
    blocked_by = list(blocked_proto)
    free = {op.engine: t0 for op in schedule.ops}
    finish: dict[int, float] = {}
    ready_time: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for i in range(n):
        if blocked_by[i] == 0:
            ready_time[i] = t0
            heapq.heappush(
                heap, (max(t0, free[schedule.ops[i].engine]), i)
            )
    order: list[int] = []
    while len(order) < n:
        if not heap:
            raise ExecutionError(
                "deadlock: no ready ops but schedule incomplete "
                "(cyclic dependencies?)"
            )
        start, idx = heapq.heappop(heap)
        op = schedule.ops[idx]
        current = max(ready_time[idx], free[op.engine])
        if current > start:
            # the engine moved on since this key was computed
            heapq.heappush(heap, (current, idx))
            continue
        ready_time.pop(idx)
        finish[idx] = current + durations[idx]
        free[op.engine] = finish[idx]
        order.append(idx)
        for consumer in consumers_of[idx]:
            blocked_by[consumer] -= 1
            if blocked_by[consumer] == 0:
                r = max(
                    (finish[d] for d in schedule.ops[consumer].deps),
                    default=t0,
                )
                ready_time[consumer] = r
                eng = schedule.ops[consumer].engine
                heapq.heappush(heap, (max(r, free[eng]), consumer))
    return order


def _plan_lookahead(
    schedule: Schedule,
    durations: list[float],
    t0: float,
    consumers_of: list[list[int]],
    blocked_proto: list[int],
) -> list[int]:
    """Critical-path list scheduler with an MME-starvation tiebreak.

    Priorities are *bottom levels* over the uncontended durations:
    ``bottom[i] = dur[i] + max(bottom[consumer])`` — the length of
    the longest chain still hanging off op ``i``. At each issue
    decision the planner takes the earliest instant any engine can
    start a ready op and, among the ops startable then, picks the
    largest bottom level — except under *MME starvation*: when no
    MME op is ready and the MME would run dry before a candidate
    finished, other engines boost ops that feed the MME, cheapest
    lead first. An op's *MME lead* is the minimum remaining
    non-MME work (its own duration plus the cheapest downstream
    path) before some MME op can start. The time-based lead
    matters: on a row-sliced softmax pipeline every scale, exp,
    and normalization slice transitively feeds the score@V
    matmuls, but finishing ``sum``+``div`` of the oldest slice
    (~4us of work) releases a matmul *now*, while another ``exp``
    slice is three ops away — pure bottom-level priority drains
    whole stages in lockstep and parks the MME for the duration.
    The emitted order is topological (an op is issued only after
    every producer), so it replays deadlock-free under both memory
    models.
    """
    n = len(schedule.ops)
    blocked_by = list(blocked_proto)
    bottom = [0.0] * n
    # cheapest remaining non-MME work before op i's completion can
    # release some MME op (0.0 for MME work itself); inf marks
    # "never reaches one"
    no_path = math.inf
    mme_lead = [no_path] * n
    # schedule indices are topological, so one reverse sweep fills
    # both the bottom levels and the lead-to-the-MME closure
    for i in reversed(range(n)):
        tail = max((bottom[c] for c in consumers_of[i]), default=0.0)
        bottom[i] = durations[i] + tail
        if schedule.ops[i].engine is EngineKind.MME:
            mme_lead[i] = 0.0
        else:
            for c in consumers_of[i]:
                d = (
                    0.0
                    if schedule.ops[c].engine is EngineKind.MME
                    else durations[c] + mme_lead[c]
                )
                if d < mme_lead[i]:
                    mme_lead[i] = d
    free = {op.engine: t0 for op in schedule.ops}
    finish: dict[int, float] = {}
    ready: dict[int, float] = {
        i: t0 for i in range(n) if blocked_by[i] == 0
    }
    order: list[int] = []
    while len(order) < n:
        if not ready:
            raise ExecutionError(
                "deadlock: no ready ops but schedule incomplete "
                "(cyclic dependencies?)"
            )
        t = min(
            max(r, free[schedule.ops[i].engine])
            for i, r in ready.items()
        )
        mme_free = free.get(EngineKind.MME, t0)
        no_ready_mme = not any(
            schedule.ops[i].engine is EngineKind.MME
            and r <= t + _TIME_EPS_US
            for i, r in ready.items()
        )
        best: int | None = None
        best_key: tuple[int, float, float, int] | None = None
        for i, r in ready.items():
            op = schedule.ops[i]
            if max(r, free[op.engine]) > t + _TIME_EPS_US:
                continue
            # anticipatory starvation: boost when the MME would go
            # (or stay) dry before this candidate could finish
            boost = int(
                no_ready_mme
                and op.engine is not EngineKind.MME
                and mme_lead[i] < no_path
                and mme_free <= t + durations[i] + _TIME_EPS_US
            )
            key = (
                boost,
                -(durations[i] + mme_lead[i]) if boost else 0.0,
                bottom[i],
                -i,
            )
            if best_key is None or key > best_key:
                best, best_key = i, key
        assert best is not None  # t came from the ready set
        op = schedule.ops[best]
        start = max(ready.pop(best), free[op.engine])
        finish[best] = start + durations[best]
        free[op.engine] = finish[best]
        order.append(best)
        for consumer in consumers_of[best]:
            blocked_by[consumer] -= 1
            if blocked_by[consumer] == 0:
                ready[consumer] = max(
                    (finish[d] for d in schedule.ops[consumer].deps),
                    default=t0,
                )
    return order


class _SchedulePrep:
    """Per-(schedule, device config) derivations the runtime reuses.

    Everything here is a pure function of the compiled schedule and the
    frozen :class:`~repro.hw.config.GaudiConfig` — cost decompositions,
    uncontended durations, the dependency graph, and the flat per-op
    lists the vector loop indexes instead of walking ``ScheduledOp``
    attributes. Caching it on the schedule (keyed by config value) means
    repeated executes — profiler warm iterations, card-count sweeps,
    benchmark rounds — pay the cost walk once.
    """

    __slots__ = (
        "durations", "compute", "hbm", "serial", "nominal",
        "cap", "heads", "eng", "engines",
        "consumers_of", "blocked_proto",
    )

    def __init__(self, schedule: Schedule, cost: CostModel):
        bandwidth = cost.mem_bandwidth
        ops = schedule.ops
        self.durations = durations = []
        self.compute = compute = []
        self.hbm = hbm = []
        self.serial = serial = []
        self.nominal = nominal = []
        self.cap = cap = []
        self.heads = heads = []
        # one walk; the sums are CostParts.uncontended_time_us's, term
        # for term, so the floats are identical
        for op in ops:
            p = op_cost_parts(cost, op)
            nom = max(p.compute_us, p.uncontended_mem_us(bandwidth))
            durations.append(nom + p.launch_us + p.fixed_us)
            compute.append(p.compute_us)
            hbm.append(p.hbm_bytes)
            serial.append(p.launch_us + p.fixed_us)
            nominal.append(nom)
            cap.append(p.rate_cap)
            # per-op event fields that never change across executions:
            # (name, engine, src, scope, flops, hbm_bytes)
            heads.append(
                (op.label, op.engine, op.src, op.scope, op.flops, p.hbm_bytes)
            )
        # engine index in first-appearance order (matches the order the
        # scalar loop's queue dict preserves)
        engine_ids: dict[EngineKind, int] = {}
        self.eng = [
            engine_ids.setdefault(op.engine, len(engine_ids)) for op in ops
        ]
        self.engines = list(engine_ids)
        self.consumers_of, self.blocked_proto = _dep_graph(schedule)


def _schedule_prep(schedule: Schedule, cost: CostModel) -> _SchedulePrep:
    """The (cached) runtime prep for ``schedule`` under ``cost``.

    Keyed by the model's ``price_key`` (its class and the config's
    canonical ``repr``, the same value-form
    :func:`~repro.synapse.recipe.recipe_key` hashes, computed once per
    cost model), so two devices with equal calibration share one prep
    and a different calibration can never alias a stale one. Compiled
    schedules are immutable after compilation (the recipe cache clones
    to enforce it), which is what makes attaching derived state to
    them safe.
    """
    cache = schedule.__dict__.get("_runtime_prep")
    if cache is None:
        cache = {}
        schedule.__dict__["_runtime_prep"] = cache
    key = cost.price_key
    prep = cache.get(key)
    if prep is None:
        prep = _SchedulePrep(schedule, cost)
        cache[key] = prep
    return prep


def _fluid_execute_vector(
    cost: CostModel,
    ncards: int,
    schedule: Schedule,
    order: list[int],
    t0: float,
    *,
    prep: _SchedulePrep,
    fabric: BandwidthArbiter | None = None,
    plans: dict[int, CollectivePlan] | None = None,
) -> tuple[list[TraceEvent], float, float]:
    """The fluid event loop: ``ncards`` cards priced by ``cost``, their
    HBM arbiters, one fabric. Returns every card's events, the summed
    contention stall and the clock after the run: the latest end of
    any engine's last op, or ``t0`` if nothing ran.

    Every card replays the same schedule in the same issue ``order`` on
    its own clock; per-card HBM traffic drains through that card's own
    arbiter. Ops with an entry in ``plans`` (non-empty step list) are
    collectives: each card *joins* when its NIC reaches the op, the
    collective starts when the last card joins, and its ring steps then
    replay as fabric events — per-step link latency followed by the
    step's aggregate wire bytes draining through the fabric arbiter at
    up to the plan's rate cap. All cards finish the collective at the
    same instant, which is what makes collectives cross-card
    synchronization points.

    The loop is byte-identical to the per-event scalar reference in
    ``tests/fluid_reference.py``, which simulates every card
    explicitly. Two observations make it fast without changing a
    single float:

    * **Cards are symmetric.** Every card replays the same schedule in
      the same order through an identical arbiter from the same ``t0``,
      and all costs come from ``cost``. The per-card dynamics are
      therefore one deterministic trajectory repeated N times — so
      this loop simulates one representative card (collectives join
      all cards at once by symmetry), records each of its events as a
      card-less head, and after the loop builds every card's copies in
      bulk (:func:`_replicate`), in the heap order ``(t, idx, c)`` the
      scalar loop pops them in. Stall accumulation repeats the same
      float additions in the same sequence.
    * **The event loop never needs to poll.** Per-op costs are hoisted
      into flat lists once (no ``CostParts`` attribute walks, no
      ``ScheduledOp.flops`` recomputation, no enum-keyed dicts in the
      hot path), queues are per-engine index lists with head cursors,
      and each epoch advances through
      :meth:`~repro.hw.bandwidth.BandwidthArbiter.drain_until` — the
      arbiter's closed-form array computation over its (remaining,
      rate) vectors — instead of per-event candidate scans.

    The phase structure (finishes, then timers, then starts, repeated
    to fixpoint before each clock advance) is kept identical to the
    scalar reference, which is what makes the integration boundaries —
    and hence every accumulated float — match it exactly.
    """
    bandwidth = cost.mem_bandwidth
    plans = plans or {}
    n = len(schedule.ops)
    consumers_of = prep.consumers_of
    blocked = list(prep.blocked_proto)

    # per-op constants, hoisted out of the loop (cached on the schedule)
    compute_l = prep.compute
    hbm_l = prep.hbm
    serial_l = prep.serial
    nominal_l = prep.nominal
    cap_l = prep.cap
    head_l = prep.heads

    # per-engine issue queues for the representative card, scanned in
    # the same first-appearance order the scalar loop's dict preserves
    eng_l = prep.eng
    nengines = len(prep.engines)
    queue_of: list[list[int]] = [[] for _ in range(nengines)]
    for idx in order:
        queue_of[eng_l[idx]].append(idx)
    scan = [e for e in range(nengines) if queue_of[e]]
    head = [0] * nengines
    busy = [False] * nengines
    # each engine's latest event head: its end is the engine's free time
    last_head: list[tuple | None] = [None] * nengines

    # the loop's own HBM arbiter is dropped when the run ends, so the
    # diagnostic rate log would never be read (the fabric arbiter,
    # whose log feeds fabric_busy_us, is constructed by the caller)
    arbiter = BandwidthArbiter(bandwidth, log_rates=False)
    start_of = [0.0] * n
    compute_end = [0.0] * n
    bytes_end = [0.0] * n
    pending_finish: list[tuple[float, int]] = []
    coll_join_at: dict[int, float] = {}
    coll_step: dict[int, int] = {}
    timers: list[tuple[float, int]] = []
    # card 0's events as card-less heads, in finish order, and the
    # twin cards' (collective copies carry no stall)
    heads: list[tuple] = []
    twin_heads: list[tuple] = []
    stall_total = 0.0
    done = 0
    now = t0

    # per-op plan lookup as a flat list (None-heavy; dict.get per start
    # shows up at this call rate)
    plan_l = [plans.get(i) for i in range(n)] if plans else [None] * n

    def start(idx: int) -> None:
        e = eng_l[idx]
        busy[e] = True
        plan = plan_l[idx]
        if plan is not None and plan.steps:
            # all cards are at the same point, so the last join is now
            coll_join_at[idx] = now
            coll_step[idx] = 0
            heapq.heappush(timers, (now + plan.steps[0].latency_us, idx))
            return
        start_of[idx] = now
        end = now + compute_l[idx]
        compute_end[idx] = end
        if hbm_l[idx] > 0:
            # ``now`` is always an epoch boundary the arbiter has just
            # integrated to, so the cheap admission applies
            arbiter.admit_clocked(idx, hbm_l[idx], now, rate_cap=cap_l[idx])
        else:
            bytes_end[idx] = now
            heapq.heappush(pending_finish, (end + serial_l[idx], idx))

    def finish_op(idx: int, t: float) -> None:
        nonlocal stall_total
        e = eng_l[idx]
        busy[e] = False
        for consumer in consumers_of[idx]:
            blocked[consumer] -= 1
        begun = start_of[idx]
        duration = t - begun
        ce = compute_end[idx]
        be = bytes_end[idx]
        active = (ce if ce > be else be) - begun
        stall = active - nominal_l[idx]
        if stall < 0.0:
            stall = 0.0
        hbm = hbm_l[idx]
        achieved_gbps = 0.0
        if hbm > 0:
            span_us = bytes_end[idx] - begun
            if span_us > 0:
                achieved_gbps = hbm / (span_us * 1e-6) / 1e9
        name, engine, src, scope, flops, hbm = head_l[idx]
        head = (name, engine, begun, duration, src, scope,
                flops, hbm, achieved_gbps, stall)
        heads.append(head)
        twin_heads.append(head)
        last_head[e] = head
        # stall adds stay one-per-card, in card order, exactly as the
        # scalar loop's per-card finish_op calls accumulate them
        stall_total = reduce(add, repeat(stall, ncards), stall_total)

    def begin_drain(idx: int) -> None:
        plan = plans[idx]
        step = plan.steps[coll_step[idx]]
        if step.wire_bytes > 0:
            assert fabric is not None, "collective steps need a fabric"
            if step.tier != "intra":
                fabric.admit(
                    idx, step.wire_bytes, now,
                    rate_cap=plan.inter_rate_cap, tier="inter",
                )
            else:
                fabric.admit(idx, step.wire_bytes, now, rate_cap=plan.rate_cap)
        else:
            step_complete(idx, now)

    def step_complete(idx: int, t: float) -> None:
        plan = plans[idx]
        coll_step[idx] += 1
        if coll_step[idx] < len(plan.steps):
            heapq.heappush(
                timers, (t + plan.steps[coll_step[idx]].latency_us, idx)
            )
        else:
            finish_collective(idx, t)

    def finish_collective(idx: int, t: float) -> None:
        nonlocal stall_total, done
        plan = plans[idx]
        e = eng_l[idx]
        busy[e] = False
        begun = coll_join_at[idx]
        stall = max(0.0, (t - begun) - plan.analytic_time_us)
        stall_total += stall
        name, engine, src, scope, _, _ = head_l[idx]
        head = (name, engine, begun, t - begun, src, scope, 0.0, 0.0, 0.0)
        heads.append(head + (stall,))
        last_head[e] = head
        # only card 0 carries the collective's stall attribution
        twin_heads.append(head + (0.0,))
        for consumer in consumers_of[idx]:
            blocked[consumer] -= 1
        done += 1

    heappop = heapq.heappop
    heappush = heapq.heappush
    drain_until = arbiter.drain_until
    while done < n:
        # ``now`` is constant through the whole issue fixpoint, so the
        # event-time cutoff is too
        cut = now + _TIME_EPS_US
        progress = True
        while progress:
            progress = False
            while pending_finish and pending_finish[0][0] <= cut:
                t, idx = heappop(pending_finish)
                finish_op(idx, t)
                done += 1
                progress = True
            while timers and timers[0][0] <= cut:
                _, idx = heappop(timers)
                begin_drain(idx)
                progress = True
            for e in scan:
                if busy[e]:
                    continue
                q = queue_of[e]
                h = head[e]
                if h < len(q) and blocked[q[h]] == 0:
                    head[e] = h + 1
                    start(q[h])
                    progress = True
        if done == n:
            break
        ext = pending_finish[0][0] if pending_finish else None
        if timers:
            tt = timers[0][0]
            if ext is None or tt < ext:
                ext = tt
        # an idle fabric has no completion to offer and nothing to
        # integrate — its clock resyncs on the next admit
        fabric_live = fabric is not None and fabric.active
        if fabric_live:
            next_wire = fabric.next_completion_us()
            if next_wire is not None and (ext is None or next_wire < ext):
                ext = next_wire
        try:
            epoch_end, completed = drain_until(
                () if ext is None else (ext,)
            )
        except ExecutionError as exc:
            raise ExecutionError(
                "deadlock: no ready ops but schedule incomplete "
                "(cyclic dependencies?)"
            ) from exc
        if epoch_end > now:
            now = epoch_end
        if len(completed) > 1:
            completed = sorted(completed)
        for idx in completed:
            bytes_end[idx] = now
            ce = compute_end[idx]
            heappush(
                pending_finish,
                ((ce if ce > now else now) + serial_l[idx], idx),
            )
        if fabric_live:
            for idx in sorted(fabric.advance(now)):
                step_complete(idx, now)
    events = _replicate(heads, twin_heads, ncards, op_major=True)
    end = max([t0, *(h[2] + h[3] for h in last_head if h is not None)])
    return events, stall_total, end


def _replay_symmetric(
    ncards: int,
    schedule: Schedule,
    order: list[int],
    durations: list[float],
    t0: float,
) -> tuple[list[TraceEvent], float]:
    """Uncontended closed-form replay on every card, card-major, and
    the clock after it.

    Card 0 issues ops in ``order``, each starting at ``max(producers
    done, engine free)`` with every engine free at ``t0`` — in program
    order this is the in-order discipline, with a planned order it
    replays that plan. Collectives take their analytic duration, so
    the cards never interact: every card runs the same deterministic
    replay, and each of cards ``1..ncards-1`` gets a copy of card 0's
    events with only ``card`` changed — the same events a replay per
    card builds.
    """
    free: dict[EngineKind, float] = {}
    finish: dict[int, float] = {}
    heads: list[tuple] = []
    for idx in order:
        op = schedule.ops[idx]
        ready = max((finish[d] for d in op.deps), default=t0)
        start = max(ready, free.get(op.engine, t0))
        duration = durations[idx]
        heads.append((op.label, op.engine, start, duration,
                      op.src, op.scope, op.flops, 0.0, 0.0, 0.0))
        finish[idx] = free[op.engine] = start + duration
    events = _replicate(heads, heads, ncards, op_major=False)
    return events, max([t0, *free.values()])


def _stage_schedule(
    schedule: Schedule,
    stage_of: list[int],
    stage: int,
    *,
    drop_tail: bool = False,
) -> Schedule:
    """The reindexed sub-schedule of ``stage``'s ops.

    Cross-stage deps vanish (the fill/drain composition accounts for
    inter-stage waiting); with ``drop_tail`` the stage's DDP gradient
    collectives and their downstream closure (the optimizer slice) are
    removed too — that variant times one steady-state microbatch.
    """
    keep = [op for i, op in enumerate(schedule.ops) if stage_of[i] == stage]
    if drop_tail:
        consumers: dict[int, list[int]] = {}
        for op in keep:
            for dep in op.deps:
                consumers.setdefault(dep, []).append(op.index)
        tail: set[int] = set()
        frontier = [
            op.index for op in keep
            if op.engine is EngineKind.NIC and op.scope == "ddp"
        ]
        while frontier:
            idx = frontier.pop()
            if idx in tail:
                continue
            tail.add(idx)
            frontier.extend(consumers.get(idx, ()))
        keep = [op for op in keep if op.index not in tail]
    remap = {op.index: i for i, op in enumerate(keep)}
    ops = []
    for op in keep:
        clone = op.clone()
        clone.index = remap[op.index]
        clone.deps = tuple(sorted(remap[d] for d in op.deps if d in remap))
        ops.append(clone)
    stats = {k: v for k, v in schedule.stats.items() if k != "pipeline"}
    return Schedule(
        graph=schedule.graph, ops=ops, memory=schedule.memory, stats=stats,
    )


def _stage_schedules(
    schedule: Schedule, pp: int, stage_of: list[int]
) -> list[tuple[Schedule, Schedule]]:
    """The (cached) ``(full, tail-free)`` sub-schedules of every stage.

    Cached on the schedule beside its ``_runtime_prep``: compiled
    schedules are immutable, so the slices are too, and reusing the
    same slice objects lets every execute hit their own prep caches.
    """
    stages = schedule.__dict__.get("_stage_schedules")
    if stages is None:
        stages = [
            (
                _stage_schedule(schedule, stage_of, stage),
                _stage_schedule(schedule, stage_of, stage, drop_tail=True),
            )
            for stage in range(pp)
        ]
        schedule.__dict__["_stage_schedules"] = stages
    return stages


#: NIC op kinds the runtime prices through fabric plans
_COLLECTIVE_SRCS = (
    "all_reduce", "all_gather", "broadcast", "reduce_scatter",
    "send", "recv",
)


def collective_plans(
    schedule: Schedule, num_cards: int, interconnect, *, boxes: int = 1
) -> dict[int, CollectivePlan]:
    """Fabric plans for every collective op in ``schedule``.

    Keyed by schedule index. The payload is the per-card buffer size
    the compiler recorded on the op's work item, so plans depend only
    on the schedule and the box — the schedule itself stays
    card-count independent (one recipe serves every population).

    ``num_cards`` is the *total* population. Ops scoped ``"tp"`` ring
    over their ``tp``-wide group; since every one of the
    ``num_cards // tp`` groups runs the same collective at the same
    schedule point, the concurrent copies are priced by scaling the
    group plan's wire bytes and rate caps together
    (:func:`~repro.hw.interconnect.scale_plan`). Data-parallel
    (``"ddp"``) collectives ring over one rank per TP group; with
    ``boxes > 1`` they take the two-tier hierarchical plan. Pipeline
    ``send``/``recv`` boundary ops become point-to-point hops, over
    Ethernet when stages land in different boxes. With ``boxes=1`` and
    no TP/PP ops the plans are exactly the flat single-box ones.
    """
    plans: dict[int, CollectivePlan] = {}
    tp = int(
        (schedule.stats.get("tensor_parallel") or {}).get("tp", 1) or 1
    )
    for op in schedule.ops:
        if op.engine is not EngineKind.NIC:
            continue
        if op.src not in _COLLECTIVE_SRCS:
            continue
        payload = int(op.items[0].bytes_read)
        if op.src in ("send", "recv"):
            plans[op.index] = p2p_plan(
                payload, interconnect, inter=boxes > 1
            )
            continue
        if op.scope == "tp" and tp > 1:
            group = collective_plan(
                op.src, min(tp, num_cards), payload, interconnect
            )
            plans[op.index] = scale_plan(group, max(1, num_cards // tp))
            continue
        group_cards = max(1, num_cards // tp)
        if boxes > 1:
            b_eff = min(boxes, group_cards)
            plan = hierarchical_collective_plan(
                op.src, b_eff, max(1, group_cards // b_eff), payload,
                interconnect,
            )
        else:
            plan = collective_plan(
                op.src, group_cards, payload, interconnect
            )
        plans[op.index] = scale_plan(plan, tp)
    return plans


class HLS1Runtime:
    """Executes one data-parallel schedule on every card of an HLS-1.

    Each card replays the same compiled schedule (same issue order) on
    its own clock and its own HBM arbiter; collective ops synchronize
    the cards through the shared fabric. It runs the same execute body
    as :class:`Runtime`, adding the collective plans and the fabric;
    with ``num_cards=1`` every plan is empty, so the trace is
    byte-identical to a :class:`Runtime` on a single
    :class:`~repro.hw.device.GaudiDevice`.
    """

    def __init__(self, system: HLS1Device | None = None):
        self.system = system or HLS1Device()

    @gc_paused()
    def execute(
        self,
        schedule: Schedule,
        *,
        scheduler: str = "inorder",
        hbm_contention: bool = True,
    ) -> ExecutionResult:
        """Run ``schedule`` on all cards; clocks keep advancing.

        ``scheduler`` and ``hbm_contention`` mean exactly what they mean
        in :meth:`Runtime.execute`. Cards are symmetric, so the fluid
        loop and the uncontended replay simulate one representative
        card and copy its events onto the others.

        A pipelined schedule (``stats["pipeline"]`` with ``pp > 1``)
        instead times fresh per-stage device slices from t=0: the
        system's clock stays where it was, the result's
        ``start_offset_us`` is 0.0 and its ``issue_order`` is empty.
        """
        pinfo = schedule.stats.get("pipeline")
        if pinfo and int(pinfo.get("pp", 1) or 1) > 1:
            return self._execute_pipelined(
                schedule, pinfo, scheduler=scheduler,
                hbm_contention=hbm_contention,
            )
        system = self.system
        if system.boxes > 1:
            # hierarchical plans route each step onto its tier; a
            # single-box run keeps the historical flat arbiter so its
            # traces stay byte-identical
            fabric = TwoTierFabric(
                system.fabric_bandwidth, system.inter_fabric_bandwidth
            )
        else:
            fabric = BandwidthArbiter(system.fabric_bandwidth, shared=True)
        plans = collective_plans(
            schedule, system.num_cards, system.interconnect,
            boxes=system.boxes,
        )
        return _execute(
            system.card_device, system.num_cards, schedule,
            scheduler=scheduler, hbm_contention=hbm_contention,
            plans=plans, fabric=fabric,
        )

    def _execute_pipelined(
        self,
        schedule: Schedule,
        pinfo: dict,
        *,
        scheduler: str,
        hbm_contention: bool,
    ) -> ExecutionResult:
        """GPipe fill/drain composition of the per-stage sub-schedules.

        The card pool splits evenly over the ``pp`` stages; each stage's
        sub-schedule is re-timed on a fresh device slice of its own
        size (multi-box slices keep the two-tier fabric). One
        microbatch costs the tail-free stage time; the pipeline runs
        ``microbatches + pp - 1`` slots of the slowest stage, then pays
        the slowest per-stage gradient/optimizer tail once:

        ``total = (m + pp - 1) * max_s T_mb(s) + max_s tail(s)``

        The returned timeline holds one microbatch per stage, stage
        ``s``'s events shifted onto cards ``[s * stage_cards, ...)``.
        """
        pp = int(pinfo["pp"])
        microbatches = int(pinfo.get("microbatches", pp) or pp)
        stage_of = list(pinfo["stage_of"])
        if len(stage_of) != len(schedule.ops):
            raise ExecutionError(
                "pipeline stage map does not match the schedule "
                f"({len(stage_of)} stages for {len(schedule.ops)} ops)"
            )
        total_cards = self.system.num_cards
        if total_cards % pp:
            raise ExecutionError(
                f"{total_cards} cards do not split over {pp} pipeline "
                "stages"
            )
        stage_cards = total_cards // pp
        cards_per_box = self.system.cards_per_box
        if stage_cards >= cards_per_box:
            stage_config = dataclasses.replace(
                self.system.config,
                boxes=stage_cards // cards_per_box,
            )
        else:
            stage_config = dataclasses.replace(
                self.system.config, num_cards=stage_cards, boxes=1
            )

        events: list[TraceEvent] = []
        mb_times: list[float] = []
        tail_times: list[float] = []
        stall_total = 0.0
        fabric_busy = 0.0
        exposed = 0.0
        kwargs = dict(scheduler=scheduler, hbm_contention=hbm_contention)
        stages = _stage_schedules(schedule, pp, stage_of)
        for stage, (full, body) in enumerate(stages):
            # each run starts a fresh device slice at t=0, so the full
            # stage time minus the tail-free time isolates the tail
            t_mb = 0.0
            if body.ops:
                t_mb = HLS1Runtime(HLS1Device(stage_config)).execute(
                    body, **kwargs
                ).total_time_us
            t_full = t_mb
            if full.ops:
                result = HLS1Runtime(HLS1Device(stage_config)).execute(
                    full, **kwargs
                )
                t_full = result.total_time_us
                stall_total += result.contention_stall_us
                fabric_busy += result.fabric_busy_us
                exposed = max(exposed, result.exposed_comm_us)
                # re-card the stage's events onto its slice of the pool
                stage_events = result.timeline.events
                events += _events_on(
                    map(itemgetter(slice(10)), stage_events),
                    zip(map(add, map(itemgetter(10), stage_events),
                            repeat(stage * stage_cards))),
                )
            mb_times.append(t_mb)
            tail_times.append(max(0.0, t_full - t_mb))
        slot = max(mb_times) if mb_times else 0.0
        total = (microbatches + pp - 1) * slot + (
            max(tail_times) if tail_times else 0.0
        )
        timeline = Timeline(
            events, name=schedule.graph.name, validate=False
        )
        return ExecutionResult(
            timeline=timeline,
            total_time_us=total,
            start_offset_us=0.0,
            schedule=schedule,
            peak_hbm_bytes=schedule.memory.peak_bytes,
            contention_stall_us=stall_total,
            num_cards=total_cards,
            exposed_comm_us=exposed,
            fabric_busy_us=fabric_busy,
        )
