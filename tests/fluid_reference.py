"""The scalar fluid event loop: the oracle for the runtime's vector loop.

:func:`_fluid_execute` simulates every card explicitly and rescans the
per-card queues, arbiters and timers for each next event time.
:func:`repro.synapse.runtime._fluid_execute_vector` must produce the
same trace, float for float. :func:`scalar_loop` swaps the reference in
for the production loop, so collective plans, fabric construction,
``fabric_busy_us`` and ``exposed_comm_us`` stay shared runtime code.
"""

from __future__ import annotations

import heapq
from collections import deque
from unittest import mock

from repro.hw.bandwidth import BandwidthArbiter
from repro.hw.costmodel import CostModel, CostParts, EngineKind
from repro.hw.interconnect import CollectivePlan
from repro.synapse.runtime import _TIME_EPS_US, _dep_graph, op_cost_parts
from repro.synapse.schedule import Schedule
from repro.synapse.trace import TraceEvent
from repro.util.errors import ExecutionError


def _fluid_execute(
    cost: CostModel,
    ncards: int,
    schedule: Schedule,
    order: list[int],
    t0: float,
    *,
    shared: bool = True,
    fabric: BandwidthArbiter | None = None,
    plans: dict[int, CollectivePlan] | None = None,
    parts: list[CostParts] | None = None,
) -> tuple[list[TraceEvent], float, float]:
    """The fluid event loop, generalized to ``ncards`` cards priced by
    ``cost`` + a shared fabric.

    Every card replays the same schedule in the same issue ``order`` on
    its own clock; per-card HBM traffic drains through that card's own
    arbiter. Ops with an entry in ``plans`` (non-empty step list) are
    collectives: each card *joins* when its NIC reaches the op, the
    collective starts when the last card joins, and its ring steps then
    replay as fabric events — per-step link latency followed by the
    step's aggregate wire bytes draining through the fabric arbiter at
    up to the plan's rate cap. All cards finish the collective at the
    same instant, which is what makes collectives cross-card
    synchronization points. With one card and no fabric this reduces
    exactly (float for float) to the single-card contended loop.

    Returns the events, the summed contention stall and the clock after
    the run: the latest end of any card's engine's last op, or ``t0``.
    """
    bandwidth = cost.mem_bandwidth
    if parts is None:
        parts = [op_cost_parts(cost, op) for op in schedule.ops]
    arbiters = [
        BandwidthArbiter(bandwidth, shared=shared) for _ in range(ncards)
    ]
    plans = plans or {}
    n = len(schedule.ops)
    consumers_of, blocked_by_proto = _dep_graph(schedule)
    blocked_by = [list(blocked_by_proto) for _ in range(ncards)]

    queues: dict[tuple[int, EngineKind], deque[int]] = {}
    for c in range(ncards):
        for idx in order:
            queues.setdefault(
                (c, schedule.ops[idx].engine), deque()
            ).append(idx)
    engine_busy = {key: False for key in queues}

    start_of: dict[tuple[int, int], float] = {}
    compute_end: dict[tuple[int, int], float] = {}
    bytes_end: dict[tuple[int, int], float] = {}
    finish: dict[tuple[int, int], float] = {}
    pending_finish: list[tuple[float, int, int]] = []
    #: collective idx -> card -> time the card's NIC joined
    coll_join: dict[int, dict[int, float]] = {}
    #: collective idx -> current ring-step number
    coll_step: dict[int, int] = {}
    #: (latency-expiry time, collective idx): the step's wire may drain
    timers: list[tuple[float, int]] = []
    events: list[TraceEvent] = []
    #: (card, engine) -> end of the engine's latest op on that card
    free_at: dict[tuple[int, EngineKind], float] = {}
    stall_total = 0.0
    done = 0
    now = t0

    def start(c: int, idx: int) -> None:
        op = schedule.ops[idx]
        plan = plans.get(idx)
        if plan is not None and plan.steps:
            engine_busy[(c, op.engine)] = True
            joined = coll_join.setdefault(idx, {})
            joined[c] = now
            if len(joined) == ncards:
                coll_step[idx] = 0
                heapq.heappush(
                    timers, (now + plan.steps[0].latency_us, idx)
                )
            return
        p = parts[idx]
        engine_busy[(c, op.engine)] = True
        start_of[(c, idx)] = now
        compute_end[(c, idx)] = now + p.compute_us
        if p.hbm_bytes > 0:
            arbiters[c].admit(idx, p.hbm_bytes, now, rate_cap=p.rate_cap)
        else:
            bytes_end[(c, idx)] = now
            heapq.heappush(
                pending_finish, (compute_end[(c, idx)] + p.serial_us, idx, c)
            )

    def finish_op(c: int, idx: int, t: float) -> None:
        nonlocal stall_total
        op = schedule.ops[idx]
        p = parts[idx]
        engine_busy[(c, op.engine)] = False
        finish[(c, idx)] = t
        for consumer in consumers_of[idx]:
            blocked_by[c][consumer] -= 1
        begun = start_of[(c, idx)]
        duration = t - begun
        active = max(compute_end[(c, idx)], bytes_end[(c, idx)]) - begun
        nominal = max(p.compute_us, p.uncontended_mem_us(bandwidth))
        stall = max(0.0, active - nominal)
        stall_total += stall
        achieved_gbps = 0.0
        if p.hbm_bytes > 0:
            span_us = bytes_end[(c, idx)] - begun
            if span_us > 0:
                achieved_gbps = p.hbm_bytes / (span_us * 1e-6) / 1e9
        free_at[(c, op.engine)] = begun + duration
        events.append(TraceEvent(
            name=op.label,
            engine=op.engine,
            start_us=begun,
            dur_us=duration,
            src=op.src,
            scope=op.scope,
            flops=op.flops,
            hbm_bytes=p.hbm_bytes,
            hbm_gbps=achieved_gbps,
            contention_stall_us=stall,
            card=c,
        ))

    def begin_drain(idx: int) -> None:
        """A step's link latency expired; put its wire on the fabric."""
        plan = plans[idx]
        step = plan.steps[coll_step[idx]]
        if step.wire_bytes > 0:
            assert fabric is not None, "collective steps need a fabric"
            if step.tier != "intra":
                # inter-box hops only exist in hierarchical plans, whose
                # runs always construct a TwoTierFabric
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
        op = schedule.ops[idx]
        plan = plans[idx]
        started = max(coll_join[idx].values())
        stall = max(0.0, (t - started) - plan.analytic_time_us)
        stall_total += stall
        for c in range(ncards):
            engine_busy[(c, op.engine)] = False
            begun = coll_join[idx][c]
            free_at[(c, op.engine)] = begun + (t - begun)
            events.append(TraceEvent(
                name=op.label,
                engine=op.engine,
                start_us=begun,
                dur_us=t - begun,
                src=op.src,
                scope=op.scope,
                contention_stall_us=stall if c == 0 else 0.0,
                card=c,
            ))
            finish[(c, idx)] = t
            for consumer in consumers_of[idx]:
                blocked_by[c][consumer] -= 1
            done += 1

    target = n * ncards
    while done < target:
        progress = True
        while progress:
            progress = False
            while (
                pending_finish
                and pending_finish[0][0] <= now + _TIME_EPS_US
            ):
                t, idx, c = heapq.heappop(pending_finish)
                finish_op(c, idx, t)
                done += 1
                progress = True
            while timers and timers[0][0] <= now + _TIME_EPS_US:
                _, idx = heapq.heappop(timers)
                begin_drain(idx)
                progress = True
            for (c, engine), queue in queues.items():
                if engine_busy[(c, engine)] or not queue:
                    continue
                if blocked_by[c][queue[0]] == 0:
                    start(c, queue.popleft())
                    progress = True
        if done == target:
            break
        candidates = []
        for arbiter in arbiters:
            next_drain = arbiter.next_completion_us()
            if next_drain is not None:
                candidates.append(next_drain)
        if fabric is not None:
            next_wire = fabric.next_completion_us()
            if next_wire is not None:
                candidates.append(next_wire)
        if pending_finish:
            candidates.append(pending_finish[0][0])
        if timers:
            candidates.append(timers[0][0])
        if not candidates:
            raise ExecutionError(
                "deadlock: no ready ops but schedule incomplete "
                "(cyclic dependencies?)"
            )
        now = max(now, min(candidates))
        for c, arbiter in enumerate(arbiters):
            for idx in sorted(arbiter.advance(now)):
                bytes_end[(c, idx)] = now
                heapq.heappush(
                    pending_finish,
                    (
                        max(compute_end[(c, idx)], now)
                        + parts[idx].serial_us,
                        idx,
                        c,
                    ),
                )
        if fabric is not None:
            for idx in sorted(fabric.advance(now)):
                step_complete(idx, now)
    return events, stall_total, max([t0, *free_at.values()])


def _as_vector_loop(cost, ncards, schedule, order, t0, *, prep,
                    fabric=None, plans=None):
    """:func:`_fluid_execute` behind the vector loop's signature."""
    return _fluid_execute(
        cost, ncards, schedule, order, t0, fabric=fabric, plans=plans
    )


def scalar_loop():
    """Run every contended execute in the block on the scalar loop."""
    return mock.patch(
        "repro.synapse.runtime._fluid_execute_vector", _as_vector_loop
    )
