"""ElementwiseFusionPass: group nodes into engine-tagged pending ops.

This is the grouping stage: every non-elided node becomes (part of) a
:class:`~repro.synapse.passes.state.PendingOp` carrying its Table-1
engine and cost-model work items. With fusion enabled, single-consumer
TPC chains — within one lowered composite (e.g. the sub+exp of a
softmax) or across plain elementwise ops — merge into one pending op
so intermediates stay on-chip and HBM traffic is charged only at the
chain edges. Disabled, the pass still runs structurally and produces
one pending op per node (the fusion-off ablation).

The pass works in two steps. :func:`plan_groups` makes every decision
from graph structure alone and returns a :class:`GroupPlan` per
pending op; :func:`materialize_pending` sizes those groups against the
current graph (shared work items, chain-external read bytes). A cold
compile runs both; a replay of a recorded plan runs only the second,
so the two can never drift apart.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ...hw.costmodel import EngineKind, OpClass
from ...hw.dtypes import itemsize
from ..graph import Graph, Node
from .base import CompilerPass
from .items import node_item
from .state import CompilationState, PendingOp

#: op classes eligible for elementwise fusion
FUSABLE_CLASSES = (OpClass.ELEMENTWISE, OpClass.SPECIAL)


class GroupPlan(NamedTuple):
    """One pending op's structural shape: what fusion decided.

    ``reads`` are the storage vids the op reads from outside itself,
    ascending. ``ext`` lists the chain-external reads of members after
    the first as ``(member position, declared value id)`` pairs; the
    first member's reads are its work item's ``bytes_read``.
    """

    nids: tuple[int, ...]
    engine: EngineKind
    reads: tuple[int, ...]
    ext: tuple[tuple[int, int], ...]


def _chain_read_bytes(
    graph: Graph, nodes: list[Node], first_read: int,
    ext: tuple[tuple[int, int], ...],
) -> int:
    """HBM bytes a pending op reads from outside itself.

    The first member's reads count whole (its item's ``bytes_read``);
    each later member adds its chain-external inputs, with the same
    accounting as ``WorkItem.bytes_read`` (input numel at the member's
    output dtype width).
    """
    total = first_read
    for pos, vid in ext:
        width = itemsize(graph.value(nodes[pos].output).dtype)
        total += math.prod(graph.value(vid).shape) * width
    return total


def plan_groups(state: CompilationState, *, fuse: bool) -> list[GroupPlan]:
    """Decide the pending ops; merge fusable chains when ``fuse``.

    Reads op kinds, engines, consumer counts, src/scope provenance and
    the alias map — structure only.
    """
    graph = state.graph
    consumers = graph.consumers()
    alias = state.alias
    backend = state.backend
    plans: list[GroupPlan] = []
    # the open chain: members, engine, reads, internal vids, external reads
    chain: tuple[list[Node], EngineKind, set, set, list] | None = None

    def close() -> None:
        nonlocal chain
        if chain is not None:
            nodes, engine, reads, _, ext = chain
            plans.append(GroupPlan(
                tuple(n.nid for n in nodes), engine, tuple(sorted(reads)),
                tuple(ext),
            ))
            chain = None

    for node in graph.nodes:
        if node.nid in state.elided:
            continue
        opdef = state.opdef(node.op)
        engine = backend.engine_for(opdef)
        # dependencies point at real storage producers; the work
        # item keeps the node's declared (view-level) shapes
        resolved = tuple([alias.get(v, v) for v in node.inputs])
        fusable = (
            fuse
            and engine is backend.fusion_engine
            and opdef.op_class in FUSABLE_CLASSES
            and opdef.supported
        )
        if fusable and chain is not None:
            nodes, _, reads, internal, ext = chain
            last = nodes[-1]
            output = last.output
            # Fuse within one lowered composite (same src, e.g. the
            # sub+exp of a softmax) or across plain elementwise ops;
            # never across composites — attribution stays truthful.
            if (
                output in resolved
                and len(consumers[output]) == 1
                and (node.src == last.src
                     or (node.src == node.op and last.src == last.op))
                and node.scope == last.scope
            ):
                internal.add(output)
                reads.update(v for v in resolved if v not in internal)
                ext.extend(
                    (len(nodes), vid)
                    for vid, storage in zip(node.inputs, resolved)
                    if storage not in internal
                )
                nodes.append(node)
                continue
        close()
        if fusable:
            chain = ([node], engine, set(resolved), set(), [])
        else:
            plans.append(GroupPlan(
                (node.nid,), engine, tuple(sorted(set(resolved))), (),
            ))
    close()
    plans.sort(key=lambda p: p.nids[0])
    return plans


def materialize_pending(
    state: CompilationState, plans: list[GroupPlan]
) -> list[PendingOp]:
    """Build the pending list for the current graph from ``plans``.

    Everything geometric — work items, external-read bytes — is read
    from the *current* graph, so a replayed plan yields a compile
    byte-identical to a cold one at any batch/seq point.
    """
    graph = state.graph
    node_of = {n.nid: n for n in graph.nodes}
    pendings: list[PendingOp] = []
    for plan in plans:
        nodes = [node_of[nid] for nid in plan.nids]
        # members share work items with every node of the same key
        items = tuple([node_item(graph, node) for node in nodes])
        read_bytes = items[0].bytes_read
        if plan.ext:
            read_bytes = _chain_read_bytes(graph, nodes, read_bytes, plan.ext)
        pendings.append(PendingOp(
            nodes, plan.engine, items, plan.reads,
            external_read_bytes=read_bytes,
        ))
    return pendings


class ElementwiseFusionPass(CompilerPass):
    """Group nodes into pending ops, fusing elementwise TPC chains."""

    name = "elementwise_fusion"
    option_flag = "fuse_elementwise"
    # chain decisions read op kinds, engines, consumer counts, and
    # src/scope provenance — the shapes only size the work items,
    # which the replay recomputes from the current graph
    signature_deps = ("structure",)
    incremental = True

    def run(self, state: CompilationState) -> dict:
        """Group with fusion; transforms = nodes absorbed into chains."""
        state.groups = plan_groups(state, fuse=True)
        state.pending = materialize_pending(state, state.groups)
        return _group_stats(state.groups)

    def record(self, state: CompilationState) -> dict:
        return {"groups": state.groups}

    def replay(self, state: CompilationState, payload: dict) -> dict:
        state.groups = payload["groups"]
        state.pending = materialize_pending(state, state.groups)
        return _group_stats(state.groups)

    def run_disabled(self, state: CompilationState) -> dict:
        """Grouping still happens — one pending op per node."""
        state.groups = plan_groups(state, fuse=False)
        state.pending = materialize_pending(state, state.groups)
        return {}


def _group_stats(plans: list[GroupPlan]) -> dict:
    absorbed = sum(len(p.nids) - 1 for p in plans)
    chains = sum(1 for p in plans if len(p.nids) > 1)
    return {"transforms": absorbed, "chains": chains}
