"""Lowering pass: expand composite ops into TPC primitives.

SynapseAI lowers framework-level ops into engine primitives; the one
that matters most to the paper is **softmax**, which becomes a
max-reduce, subtract, exponential, sum-reduce and divide — all on the
TPC (§2.4: "The softmax's computation can only be executed on TPC,
which degrades the overall training performance").

Lowered nodes keep ``src`` = the composite's op name, so the profiler
can attribute trace time back to "softmax" exactly the way the paper's
Figure 4 does.
"""

from __future__ import annotations

from typing import Callable

from ..util.errors import CompileError
from .graph import Graph, Node, TensorValue
from .ops import op


class _Rewriter:
    """Copies a graph while remapping value ids."""

    def __init__(self, old: Graph):
        self.old = old
        self.new = Graph(old.name)
        self.vmap: dict[int, int] = {}
        #: old vid -> the new-graph vids its expansion created
        self.expanded: dict[int, range] = {}

    def map_value(self, old_vid: int) -> TensorValue:
        """New-graph value corresponding to ``old_vid`` (copied lazily)."""
        new_vid = self.vmap.get(old_vid)
        if new_vid is not None:
            return self.new.values[new_vid]
        v = self.old.value(old_vid)
        nv = self.new.add_value(v.shape, v.dtype, name=v.name, kind=v.kind)
        self.vmap[old_vid] = nv.vid
        return nv

    def emit(
        self,
        op_name: str,
        inputs: list[TensorValue],
        *,
        attrs: dict | None = None,
        src: str,
        scope: str,
        name: str = "",
    ) -> TensorValue:
        """Append a primitive node, inferring its output shape."""
        attrs = dict(attrs or {})
        opdef = op(op_name)
        out_shape = opdef.infer_shape([v.shape for v in inputs], attrs)
        out = self.new.add_value(out_shape, inputs[0].dtype, name=name)
        self.new.add_node(
            op_name, [v.vid for v in inputs], out,
            attrs=attrs, src=src, scope=scope,
        )
        return out

    def copy_node(self, node: Node) -> None:
        """Copy a primitive node verbatim (ids remapped, attrs shared)."""
        inputs = [self.map_value(vid).vid for vid in node.inputs]
        self.new.add_node(
            node.op, inputs, self.map_value(node.output),
            attrs=node.attrs, src=node.src, scope=node.scope,
        )

    def finish(self) -> Graph:
        """Carry the old graph's marks over; validate and return the new.

        Marks follow the vid remap, so a gradient mark or checkpoint
        boundary on a value the rewrite dropped goes with it. A
        droppable value's expansion is droppable too: recomputing the
        segment re-runs the whole expansion anyway.
        """
        old, new, vmap = self.old, self.new, self.vmap
        grads = [(vmap[v], name) for v, name in old.gradients() if v in vmap]
        if grads:
            new.metadata["gradients"] = grads
        for label, inputs, outputs, droppable in old.checkpoints():
            drops = {vmap[v] for v in droppable if v in vmap}
            for v in droppable:
                drops.update(
                    n for n in self.expanded.get(v, ())
                    if new.values[n].kind == "activation"
                )
            new.mark_checkpoint(
                label, [vmap[v] for v in inputs if v in vmap],
                [vmap[v] for v in outputs if v in vmap], sorted(drops),
            )
        new.validate()
        return new


LoweringFn = Callable[[_Rewriter, Node], TensorValue]


def _lower_softmax(rw: _Rewriter, node: Node) -> TensorValue:
    (x_vid,) = node.inputs
    x = rw.map_value(x_vid)
    axis = node.attrs.get("axis", -1)
    src, scope = node.op, node.scope
    red = {"axis": axis, "keepdims": True}
    m = rw.emit("max", [x], attrs=red, src=src, scope=scope)
    z = rw.emit("sub", [x, m], src=src, scope=scope)
    e = rw.emit("exp", [z], src=src, scope=scope)
    s = rw.emit("sum", [e], attrs=red, src=src, scope=scope)
    return rw.emit("div", [e, s], src=src, scope=scope)


def _lower_log_softmax(rw: _Rewriter, node: Node) -> TensorValue:
    (x_vid,) = node.inputs
    x = rw.map_value(x_vid)
    axis = node.attrs.get("axis", -1)
    src, scope = node.op, node.scope
    red = {"axis": axis, "keepdims": True}
    m = rw.emit("max", [x], attrs=red, src=src, scope=scope)
    z = rw.emit("sub", [x, m], src=src, scope=scope)
    e = rw.emit("exp", [z], src=src, scope=scope)
    s = rw.emit("sum", [e], attrs=red, src=src, scope=scope)
    logs = rw.emit("log", [s], src=src, scope=scope)
    return rw.emit("sub", [z, logs], src=src, scope=scope)


LOWERINGS: dict[str, LoweringFn] = {
    "softmax": _lower_softmax,
    "log_softmax": _lower_log_softmax,
}


def lower_graph(graph: Graph) -> Graph:
    """Return a new graph with every composite op expanded.

    ``graph`` is taken as valid (the ``validate`` pass checked it); the
    rewrite is checked once, as a whole, before it is returned.
    """
    rw = _Rewriter(graph)
    for node in graph.nodes:
        opdef = op(node.op)
        if not opdef.composite:
            rw.copy_node(node)
            continue
        try:
            fn = LOWERINGS[node.op]
        except KeyError:
            raise CompileError(
                f"composite op {node.op!r} has no registered lowering"
            ) from None
        range_start = rw.new._next_vid
        out = fn(rw, node)
        old_out = graph.value(node.output)
        if out.shape != old_out.shape:
            raise CompileError(
                f"lowering of {node.op!r} changed output shape "
                f"{old_out.shape} -> {out.shape}"
            )
        # Downstream consumers of the composite's output now read the
        # lowered result.
        rw.vmap[node.output] = out.vid
        rw.expanded[node.output] = range(range_start, rw.new._next_vid)
    return rw.finish()
