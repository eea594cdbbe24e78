"""EmitSchedulePass: assemble pending ops into the final Schedule.

The always-on assembly stage — the engine-mapping step made concrete.
Walks the pending list in program order and materializes, per pending
op: its host recompilation event (if RecompileInjectionPass marked
one), the DMA ops its staged reads require (deduplicated per
value/engine pair), and the compute op itself with dependency edges
back to producers. The emitted order is exactly what the in-order
runtime issues per engine — program order preserved, as §3.3 observes
SynapseAI doing.

Emission works in two steps. :func:`plan_ops` lays out the op
skeleton from structure alone — labels, engines, deps, reads/writes,
and where the DMA and recompile ops go — and is memoized under the
structure key the upstream structural passes were replayed or
recorded under (``CompilationState.structure_key``). :func:`fill_ops`
then builds this compile's ops from the skeleton's rows and hangs the
work items on them: the pending ops' items, shared DMA staging items
sized from the current graph, and the recompile stalls' penalty.
"""

from __future__ import annotations

from typing import NamedTuple

from ...hw.costmodel import EngineKind, OpClass, WorkItem
from ..schedule import ScheduledOp
from .base import CompilerPass
from .incremental import structural_memo
from .items import shared_item
from .state import CompilationState

#: what fills an op skeleton's items: a pending op's (by index), a
#: staged value's DMA transfer (by vid), a recompile stall (by op kind)
_COMPUTE, _DMA, _HOST = range(3)


class OpSkeleton(NamedTuple):
    """Emission's structural output, item-free.

    ``ops`` holds one ``(fill, ref, label, engine, deps, src, scope,
    reads, writes, node_ids)`` row per emitted op: ``fill`` says what
    its items come from and ``ref`` which pending op (by index), staged
    value (by vid) or op kind. The sequence fields are tuples, handed to
    every compile's ops as they are. ``counts`` are the emit stats.
    """

    ops: list[tuple]
    counts: dict[str, int]


def _dma_item(vid: int, nbytes: int) -> WorkItem:
    """The shared staging transfer of ``nbytes`` of value ``vid``."""
    return shared_item(("dma", vid, nbytes), lambda: WorkItem(
        f"dma:{vid}", OpClass.DATA_MOVE, bytes_read=nbytes, pipelined=True,
    ))


def plan_ops(state: CompilationState) -> OpSkeleton:
    """Lay out the emitted ops from the pending list's structure."""
    graph = state.graph
    backend = state.backend
    rows: list[tuple] = []
    producer_of: dict[int, int] = {}  # value id -> schedule index
    dma_cache: dict[tuple[int, EngineKind], int] = {}
    n_dma = 0
    n_recompile = 0

    for i, pending in enumerate(state.pending):
        first = pending.nodes[0]
        deps: list[int] = []

        if pending.needs_recompile:
            deps.append(len(rows))
            rows.append((
                _HOST, first.op, f"recompile:{first.op}",
                backend.host_engine, (), first.src, first.scope, (), (), (),
            ))
            n_recompile += 1

        for vid in pending.reads:
            prod_idx = producer_of.get(vid)
            if prod_idx is None:
                continue  # graph input: already resident in HBM
            if vid not in pending.dma_reads:
                deps.append(prod_idx)
                continue
            key = (vid, pending.engine)
            if key not in dma_cache:
                dma_cache[key] = len(rows)
                rows.append((
                    _DMA, vid, f"dma:{graph.value(vid).name or vid}",
                    backend.dma_engine, (prod_idx,), "dma", first.scope,
                    (vid,), (), (),
                ))
                n_dma += 1
            deps.append(dma_cache[key])

        producer_of[pending.output_vid] = len(rows)
        rows.append((
            _COMPUTE, i,
            pending.nodes[-1].label()
            if len(pending.nodes) == 1
            else f"fused[{'+'.join(n.op for n in pending.nodes)}]",
            pending.engine, tuple(sorted(set(deps))), first.src,
            first.scope, pending.reads, (pending.output_vid,),
            tuple([n.nid for n in pending.nodes]),
        ))

    return OpSkeleton(rows, {
        "scheduled_ops": len(rows),
        "fused_chains": sum(1 for p in state.pending if len(p.nodes) > 1),
        "dma_transfers": n_dma,
        "recompilations": n_recompile,
    })


def fill_ops(
    state: CompilationState, skeleton: OpSkeleton
) -> list[ScheduledOp]:
    """This compile's ops: the skeleton's rows, with their work items."""
    graph = state.graph
    pending = state.pending
    penalty = state.options.recompile_penalty_us
    ops: list[ScheduledOp] = []
    for index, (
        fill, ref, label, engine, deps, src, scope, reads, writes, node_ids,
    ) in enumerate(skeleton.ops):
        if fill == _COMPUTE:
            source = pending[ref]
            ops.append(ScheduledOp(
                index, label, engine, source.items, deps, src, scope,
                reads, writes, node_ids, source.external_read_bytes,
            ))
        elif fill == _DMA:
            item = _dma_item(ref, graph.value(ref).nbytes)
            ops.append(ScheduledOp(
                index, label, engine, (item,), deps, src, scope, reads,
            ))
        else:
            item = WorkItem(
                f"recompile:{ref}", OpClass.HOST, fixed_time_us=penalty,
            )
            ops.append(ScheduledOp(
                index, label, engine, (item,), deps, src, scope,
            ))
    return ops


class EmitSchedulePass(CompilerPass):
    """Materialize ScheduledOps (compute, DMA, host) from pending ops."""

    name = "emit"

    def run(self, state: CompilationState) -> dict:
        """Build ``state.ops`` and the headline compiler stats."""
        assert state.pending is not None, "grouping must run before emission"
        skeleton = structural_memo(
            self.name, state.structure_key, lambda: plan_ops(state)
        )
        state.ops = fill_ops(state, skeleton)
        state.stats["nodes"] = len(state.graph.nodes)
        state.stats.update(skeleton.counts)
        return {"transforms": len(state.ops)}
