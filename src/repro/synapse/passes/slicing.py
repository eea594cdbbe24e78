"""TpcSlicingPass: split large batch-parallel TPC ops into row slices.

The paper's central bubble (Fig. 4) is a serial
``matmul -> softmax -> matmul`` chain: while the monolithic softmax
runs on the TPC, the MME sits idle. But softmax (and the feature-map
exponentials of Performer, and most activations) is *row-parallel*
along dim -2 — every row block is independent — so the op can be split
into ``k`` slices whose producers and consumers split with it:

    QK -> softmax -> AV            becomes
    QK_0..QK_k-1 -> softmax_0..softmax_k-1 -> AV_0..AV_k-1

Now ``AV_i`` only waits for ``softmax_i``, and the MME computes
``QK_{i+1}`` while the TPC runs ``softmax_i`` — the software pipeline
A6 built by hand at the source level, derived automatically by the
compiler. This is exactly the scheduling direction GFormer (Zhang et
al., 2024) validated on real Gaudi hardware.

Mechanics:

* **Chains.** The pass finds maximal single-consumer chains of
  row-parallel ops anchored on an expensive TPC op (softmax / special
  unary / activation whose cost-model estimate exceeds
  ``tpc_slice_min_us``). Chains extend through same-shape unaries,
  row-compatible binaries (the other operand is row-sliced when it
  shares the row dim, or broadcast), and matmuls whose left operand
  carries the rows — which is what pulls the surrounding MME work into
  the pipeline. Dropout is excluded (its RNG mask is full-shape
  dependent, slicing would change numerics), as are reductions and
  anything reshaping the row axis.
* **Slice count.** ``k`` is cost-model driven: the chain's TPC time
  divided by ``20 x`` the TPC launch overhead bounds the overhead of
  extra launches to ~5%, clamped to [2, 8] and rounded down to a
  divisor of the row count (row blocks stay equal and >= 2 rows).
* **Emission** is stage-major: all ``k`` slices of a chain stage are
  emitted before the next stage, so per-engine in-order issue already
  pipelines (the MME's queue reads ``QK_0..QK_k-1`` before any
  ``AV_i``); the lookahead scheduler then closes the remaining
  bubbles.
* **Reassembly** is a zero-traffic n-ary ``assemble_rows`` node
  (slices compute directly into the output buffer); the lint rule
  ``slice-reassembly`` checks every assembled subgraph covers the
  original tensor exactly.

Runs before ``lower_composites`` so a softmax is sliced as one node
and each slice then lowers with ``src="softmax"`` intact — trace
attribution (Fig. 4's "softmax > 80% of TPC time") survives slicing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...hw.costmodel import CostModel
from ..graph import Graph, Node, TensorValue
from ..lowering import _Rewriter
from ..ops import OpDef, work_item_for
from .base import CompilerPass
from .state import CompilationState

#: ops a slice chain may anchor on (expensive, row-parallel TPC work)
ANCHOR_OPS = frozenset({
    "softmax", "log_softmax", "exp", "elu", "gelu", "sigmoid", "tanh",
    "relu", "leaky_relu",
})

#: same-shape unary ops a chain may extend through (dropout excluded:
#: its RNG mask depends on the full tensor shape; glu is unsupported;
#: cast excluded: the rewriter types slice outputs from their input)
_UNARY_CHAIN_OPS = frozenset({
    "exp", "log", "sqrt", "rsqrt", "sigmoid", "tanh", "gelu", "elu",
    "relu", "leaky_relu", "neg", "abs", "square", "step_ge0",
    "smul", "sadd", "spow",
})

#: binary elementwise ops a chain may extend through
_BINARY_CHAIN_OPS = frozenset({"add", "sub", "mul", "div", "maximum"})

#: slices-per-chain cap (8 matches the TPC core count: more slices
#: than cores cannot add TPC parallelism, only launch overhead)
_MAX_SLICES = 8

#: launch-overhead budget: chain TPC time must amortize ~20 launches
#: per slice for the added serial tails to stay under a few percent
_LAUNCH_AMORTIZATION = 20.0


@dataclass
class _Chain:
    """One sliceable single-consumer chain (top..bottom, program order)."""

    nodes: list[Node]
    #: node id -> input position the carried (sliced) value flows through
    carried_pos: dict[int, int]
    rows: int
    k: int


class TpcSlicingPass(CompilerPass):
    """Split large row-parallel TPC chains into pipelined slices."""

    name = "tpc_slicing"
    option_flag = "tpc_slice_ops"

    def run(self, state: CompilationState) -> dict:
        """Rewrite ``state.graph`` with every profitable chain sliced."""
        if not state.backend.supports_tpc_slicing:
            # the split models the MME/TPC ping-pong; a single compute
            # grid has no cross-engine bubble for slices to fill
            return self.run_disabled(state)
        cost = state.backend.cost_model(state.config)
        min_us = float(state.options.tpc_slice_min_us)
        chains = _find_chains(state.graph, state.backend, cost, min_us)
        stats = {
            "transforms": len(chains),
            "sliced_chains": len(chains),
            "slices_created": sum(c.k for c in chains),
            "sliced_nodes": sum(len(c.nodes) for c in chains),
        }
        state.stats["overlap"] = {
            "sliced_chains": stats["sliced_chains"],
            "slices_created": stats["slices_created"],
            "sliced_nodes": stats["sliced_nodes"],
        }
        if chains:
            state.graph = _apply_chains(state.graph, chains)
        return stats

    def run_disabled(self, state: CompilationState) -> dict:
        """Disabled slicing still reports empty overlap stats."""
        state.stats["overlap"] = {
            "sliced_chains": 0, "slices_created": 0, "sliced_nodes": 0,
        }
        return {}


# -- chain discovery ---------------------------------------------------------


def _member_pos(
    graph: Graph,
    node: Node,
    batch: tuple[int, ...],
    rows: int,
    want_vid: int | None = None,
) -> int | None:
    """Input position the rows flow through if ``node`` can join a
    chain over ``(batch, rows)``; None when it cannot.

    ``want_vid`` (downstream extension) additionally requires the
    carried input to be that specific value.
    """
    out = graph.value(node.output).shape
    if len(out) < 2 or out[:-2] != batch or out[-2] != rows:
        return None
    if node.op in ("softmax", "log_softmax"):
        axis = node.attrs.get("axis", -1)
        if axis not in (-1, len(out) - 1):
            return None
        pos = 0
    elif node.op in _UNARY_CHAIN_OPS:
        if graph.value(node.inputs[0]).shape != out:
            return None
        pos = 0
    elif node.op in _BINARY_CHAIN_OPS:
        pos = None
        for p in (0, 1):
            carried = graph.value(node.inputs[p]).shape
            other = graph.value(node.inputs[1 - p]).shape
            if carried != out or not _side_sliceable(other, rows):
                continue
            if want_vid is not None and node.inputs[p] != want_vid:
                continue
            pos = p
            break
        if pos is None:
            return None
    elif node.op == "matmul":
        if node.attrs.get("transpose_a"):
            return None
        a = graph.value(node.inputs[0]).shape
        if a[:-2] != batch or a[-2] != rows:
            return None
        pos = 0
    else:
        return None
    if want_vid is not None and node.inputs[pos] != want_vid:
        return None
    return pos


def _side_sliceable(shape: tuple[int, ...], rows: int) -> bool:
    """The non-carried binary operand: row-sliceable or broadcast."""
    if len(shape) < 2:
        return True
    return shape[-2] in (1, rows)


def _find_chains(
    graph: Graph, backend, cost: CostModel, min_us: float
) -> list[_Chain]:
    """Maximal profitable slice chains, disjoint, in program order."""
    consumers: dict[int, list[Node]] = {}
    producer_of: dict[int, Node] = {}
    for node in graph.nodes:
        producer_of[node.output] = node
        for vid in node.inputs:
            consumers.setdefault(vid, []).append(node)
    marked = {vid for vid, _ in graph.gradients()}
    opdefs: dict[str, OpDef] = {}

    def tpc_us(node: Node) -> float:
        from ..ops import op as op_def

        opdef = opdefs.setdefault(node.op, op_def(node.op))
        vector = backend.vector_engine
        if backend.engine_for(opdef) is not vector:
            return 0.0
        out = graph.value(node.output)
        item = work_item_for(
            node.op, [graph.value(v).shape for v in node.inputs],
            out.shape, out.dtype, node.attrs, opdef=opdef,
        )
        return cost.time_us(vector, item)

    used: set[int] = set()
    chains: list[_Chain] = []
    for node in graph.nodes:
        if node.nid in used or node.op not in ANCHOR_OPS:
            continue
        out = graph.value(node.output).shape
        if len(out) < 2 or out[-2] < 4:
            continue
        batch, rows = out[:-2], out[-2]
        if _member_pos(graph, node, batch, rows) is None:
            continue
        if tpc_us(node) < min_us:
            continue
        chain, carried_pos = _grow_chain(
            graph, consumers, producer_of, node, batch, rows,
            used, marked,
        )
        chain_tpc_us = sum(tpc_us(n) for n in chain)
        k = _pick_slices(chain_tpc_us, rows, cost.fused_launch_us)
        if k is None:
            continue
        used.update(n.nid for n in chain)
        chains.append(_Chain(chain, carried_pos, rows, k))
    return chains


def _grow_chain(
    graph: Graph,
    consumers: dict[int, list[Node]],
    producer_of: dict[int, Node],
    anchor: Node,
    batch: tuple[int, ...],
    rows: int,
    used: set[int],
    marked: set[int],
) -> tuple[list[Node], dict[int, int]]:
    """Extend ``anchor`` to a maximal single-consumer chain."""
    pos = _member_pos(graph, anchor, batch, rows)
    assert pos is not None  # the caller checked
    chain = [anchor]
    carried_pos = {anchor.nid: pos}
    # upstream: follow the carried input to its producer
    cur = anchor
    while True:
        vid = cur.inputs[carried_pos[cur.nid]]
        prod = producer_of.get(vid)
        if (
            prod is None
            or prod.nid in used
            or len(consumers.get(vid, [])) != 1
            or vid in marked
        ):
            break
        p = _member_pos(graph, prod, batch, rows)
        if p is None:
            break
        chain.insert(0, prod)
        carried_pos[prod.nid] = p
        cur = prod
    # downstream: follow the sole consumer of the chain value
    cur = chain[-1]
    while True:
        cons = consumers.get(cur.output, [])
        if len(cons) != 1 or cur.output in marked:
            break
        nxt = cons[0]
        if nxt.nid in used:
            break
        p = _member_pos(graph, nxt, batch, rows, want_vid=cur.output)
        if p is None:
            break
        chain.append(nxt)
        carried_pos[nxt.nid] = p
        cur = nxt
    return chain, carried_pos


def _pick_slices(
    chain_tpc_us: float, rows: int, launch_us: float
) -> int | None:
    """Cost-model slice count: amortize launches, divide rows evenly.

    None means the chain is not worth slicing (rows too few to split
    into blocks of >= 2).
    """
    if launch_us > 0:
        budget = int(chain_tpc_us / (launch_us * _LAUNCH_AMORTIZATION))
    else:
        budget = _MAX_SLICES
    kmax = min(_MAX_SLICES, max(2, budget))
    for k in range(kmax, 1, -1):
        if rows % k == 0 and rows // k >= 2:
            return k
    return None


# -- graph rewrite -----------------------------------------------------------


def _apply_chains(graph: Graph, chains: list[_Chain]) -> Graph:
    """Copy ``graph`` with every chain replaced by its sliced form."""
    rw = _Rewriter(graph)
    by_last = {chain.nodes[-1].nid: chain for chain in chains}
    members = {n.nid for c in chains for n in c.nodes}
    side_cache: dict[tuple[int, int, int], TensorValue] = {}
    for node in graph.nodes:
        chain = by_last.get(node.nid)
        if chain is not None:
            _emit_chain(rw, graph, chain, side_cache)
        elif node.nid not in members:
            rw.copy_node(node)
        # interior chain members are emitted by their chain's last node
    # values a chain rewrite dissolved (per-slice interiors) drop out
    # of the gradient marks and checkpoint sets
    return rw.finish()


def _emit_chain(
    rw: _Rewriter,
    graph: Graph,
    chain: _Chain,
    side_cache: dict[tuple[int, int, int], TensorValue],
) -> None:
    """Emit the sliced chain, stage-major, then reassemble.

    Emission happens at the position of the chain's *last* node: every
    chain input was produced before the first member, and the chain's
    output is only consumed after the last, so the splice preserves
    topological order.
    """
    step = chain.rows // chain.k
    bounds = [(i * step, (i + 1) * step) for i in range(chain.k)]
    top = chain.nodes[0]
    top_vid = top.inputs[chain.carried_pos[top.nid]]
    carried = [
        _slice_of(rw, top_vid, lo, hi, side_cache, scope=top.scope)
        for lo, hi in bounds
    ]
    for node in chain.nodes:
        pos = chain.carried_pos[node.nid]
        outs = []
        for i, (lo, hi) in enumerate(bounds):
            inputs = []
            for j, vid in enumerate(node.inputs):
                if j == pos:
                    inputs.append(carried[i])
                else:
                    inputs.append(_side_operand(
                        rw, graph, node, vid, lo, hi, chain.rows,
                        side_cache,
                    ))
            outs.append(rw.emit(
                node.op, inputs, attrs=node.attrs,
                src=node.src, scope=node.scope,
            ))
        carried = outs
    last = chain.nodes[-1]
    assembled = rw.emit(
        "assemble_rows", carried, src="tpc_slice", scope=last.scope,
    )
    # downstream consumers of the chain output now read the assembly
    rw.vmap[last.output] = assembled.vid


def _side_operand(
    rw: _Rewriter,
    graph: Graph,
    node: Node,
    vid: int,
    lo: int,
    hi: int,
    rows: int,
    side_cache: dict[tuple[int, int, int], TensorValue],
) -> TensorValue:
    """The non-carried operand for one slice: row-sliced or whole."""
    shape = graph.value(vid).shape
    if (
        node.op in _BINARY_CHAIN_OPS
        and len(shape) >= 2
        and shape[-2] == rows
    ):
        return _slice_of(rw, vid, lo, hi, side_cache, scope=node.scope)
    return rw.map_value(vid)


def _slice_of(
    rw: _Rewriter,
    vid: int,
    lo: int,
    hi: int,
    side_cache: dict[tuple[int, int, int], TensorValue],
    *,
    scope: str,
) -> TensorValue:
    """A (cached) ``slice_rows`` of old-graph value ``vid``."""
    key = (vid, lo, hi)
    if key not in side_cache:
        side_cache[key] = rw.emit(
            "slice_rows", [rw.map_value(vid)],
            attrs={"lo": lo, "hi": hi}, src="tpc_slice", scope=scope,
        )
    return side_cache[key]
