"""Graph IR: the program representation SynapseAI compiles.

A :class:`Graph` is a list of single-output :class:`Node` ops over
:class:`TensorValue` operands, kept in *program order* — the order the
frontend emitted them, which is also a topological order (an op can
only consume already-created values). Program order matters: the paper
attributes its MME idle gaps to the GraphCompiler issuing work
in-order per engine (§3.3), so the IR must preserve it.

Values are symbolic (shape + dtype); functional data lives in the
frontend (:mod:`repro.ht`), keeping paper-scale graphs cheap to build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.dtypes import DType, itemsize
from ..util.errors import GraphError
from ..util.validation import check_shape

Shape = tuple[int, ...]


@dataclass(slots=True)
class TensorValue:
    """A symbolic tensor in the graph (treated as immutable once added)."""

    vid: int
    shape: Shape
    dtype: DType
    name: str = ""
    #: graph inputs: "input" (activations fed per step), "param"
    #: (persistent weights), "const"; producer outputs: "activation"
    kind: str = "activation"

    @property
    def numel(self) -> int:
        """Number of elements."""
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def nbytes(self) -> int:
        """Device bytes of this value."""
        return self.numel * itemsize(self.dtype)


@dataclass(slots=True)
class Node:
    """One op in program order. Single output, n inputs."""

    nid: int
    op: str
    inputs: tuple[int, ...]
    output: int
    attrs: dict = field(default_factory=dict)
    #: provenance of lowered ops ("softmax", "layernorm", ...) or the
    #: composite op's own name; used by trace analysis.
    src: str = ""
    #: frontend scope, e.g. "encoder0.attn"
    scope: str = ""

    def label(self) -> str:
        """Human-readable op label for traces."""
        base = f"{self.scope}.{self.op}" if self.scope else self.op
        return base


class Graph:
    """An op graph in program order."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.values: dict[int, TensorValue] = {}
        self.nodes: list[Node] = []
        self._next_vid = 0
        self._next_nid = 0
        #: structured side-channel annotations that survive compilation,
        #: e.g. ``metadata["gradients"]``: ordered (vid, param_name)
        #: pairs the optimizer marked for data-parallel all-reduce.
        self.metadata: dict = {}

    # -- construction ----------------------------------------------------
    #
    # Appends only: the shape and SSA checks run once, in
    # :meth:`validate`, when the graph reaches the compiler.

    def add_value(
        self,
        shape: Shape,
        dtype: DType,
        *,
        name: str = "",
        kind: str = "activation",
    ) -> TensorValue:
        """Create a new value (graph input if no node produces it)."""
        if kind not in ("activation", "input", "param", "const"):
            raise GraphError(f"unknown value kind {kind!r}")
        value = TensorValue(self._next_vid, tuple(shape), dtype, name, kind)
        self.values[value.vid] = value
        self._next_vid += 1
        return value

    def add_node(
        self,
        op: str,
        inputs: tuple[int, ...] | list[int],
        output: TensorValue,
        *,
        attrs: dict | None = None,
        src: str = "",
        scope: str = "",
    ) -> Node:
        """Append an op; ``attrs`` is stored as given, not copied."""
        node = Node(
            self._next_nid, op, tuple(inputs), output.vid,
            {} if attrs is None else attrs, src or op, scope,
        )
        self._next_nid += 1
        self.nodes.append(node)
        return node

    def mark_gradient(self, vid: int, param_name: str = "") -> None:
        """Tag ``vid`` as a parameter gradient (DDP-style marking).

        The optimizer calls this for every ``p.grad`` it consumes; the
        ``collective_injection`` pass buckets the marked values and
        emits all-reduce ops over them. Re-marking a vid is a no-op.
        """
        if vid not in self.values:
            raise GraphError(f"mark_gradient: unknown value id {vid}")
        grads: list = self.metadata.setdefault("gradients", [])
        if all(existing != vid for existing, _ in grads):
            grads.append((vid, param_name))

    def gradients(self) -> list[tuple[int, str]]:
        """Marked (gradient vid, param name) pairs, in marking order."""
        return list(self.metadata.get("gradients", []))

    def mark_checkpoint(
        self,
        label: str,
        input_vids: "tuple[int, ...] | list[int]",
        output_vids: "tuple[int, ...] | list[int]",
        droppable_vids: "tuple[int, ...] | list[int]",
    ) -> None:
        """Record a checkpoint segment (activation-recompute region).

        ``droppable_vids`` are the values produced inside the segment
        that the memory planner may drop and re-materialize from the
        segment's inputs; ``input_vids``/``output_vids`` bound the
        region and are always kept. Like gradient marks, checkpoint
        segments live in ``metadata`` and survive lowering, slicing,
        serialization, and the recipe signature.
        """
        for vid in (*input_vids, *output_vids, *droppable_vids):
            if vid not in self.values:
                raise GraphError(f"mark_checkpoint: unknown value id {vid}")
        segments: list = self.metadata.setdefault("checkpoints", [])
        segments.append((
            label, tuple(input_vids), tuple(output_vids),
            tuple(droppable_vids),
        ))

    def checkpoints(self) -> list[tuple[str, tuple, tuple, tuple]]:
        """Recorded (label, inputs, outputs, droppable) segments."""
        return list(self.metadata.get("checkpoints", []))

    def checkpoint_droppable(self) -> set[int]:
        """Value ids the memory planner may recompute instead of keep.

        The union of every segment's droppable set, minus any value
        some segment declares as a boundary (input or output) — the
        boundaries are what recompute starts from and feeds into.
        """
        drops: set[int] = set()
        keep: set[int] = set()
        for _, inputs, outputs, droppable in self.checkpoints():
            drops.update(droppable)
            keep.update(inputs)
            keep.update(outputs)
        return drops - keep

    # -- queries -----------------------------------------------------------

    def value(self, vid: int) -> TensorValue:
        """Look up a value by id."""
        try:
            return self.values[vid]
        except KeyError:
            raise GraphError(f"unknown value id {vid}") from None

    def producer(self, vid: int) -> Node | None:
        """The node producing ``vid`` (None for graph inputs)."""
        for node in self.nodes:
            if node.output == vid:
                return node
        return None

    def consumers(self) -> dict[int, list[Node]]:
        """Map of value id -> consuming nodes (program order)."""
        out: dict[int, list[Node]] = {vid: [] for vid in self.values}
        for node in self.nodes:
            for vid in node.inputs:
                out[vid].append(node)
        return out

    def graph_inputs(self) -> list[TensorValue]:
        """Values with no producer (inputs, params, consts)."""
        produced = {node.output for node in self.nodes}
        return [v for vid, v in sorted(self.values.items()) if vid not in produced]

    def parameters(self) -> list[TensorValue]:
        """Graph inputs marked as parameters."""
        return [v for v in self.graph_inputs() if v.kind == "param"]

    def check_shapes(self) -> None:
        """Rank <= 5 and non-negative int dims on every value: the
        :func:`~repro.util.validation.check_shape` error of the first
        bad value."""
        for v in self.values.values():
            if len(v.shape) > 5:
                check_shape(v.name or "value", v.shape)
            for dim in v.shape:  # a loop: twice as fast as any()
                if type(dim) is not int or dim < 0:
                    check_shape(v.name or "value", v.shape)

    def validate(self) -> None:
        """The one check of a built graph (construction only appends):
        shapes, then SSA and program order, as typed errors."""
        self.check_shapes()
        values = self.values
        ready = {vid for vid, v in values.items() if v.kind != "activation"}
        produced: set[int] = set()
        for node in self.nodes:
            for vid in node.inputs:
                if vid not in ready:
                    raise GraphError(
                        f"node {node.nid} ({node.op!r}) consumes unknown "
                        f"value {vid}" if vid not in values else
                        f"node {node.nid} ({node.op}) reads value {vid} "
                        "before it is produced — graph is not in program order"
                    )
            out = node.output
            if out in produced or out not in values:
                raise GraphError(
                    f"node {node.nid} ({node.op!r}) produces unregistered "
                    f"value {out}" if out not in values else
                    f"value {out} already has a producer (single static "
                    f"assignment violated by {node.op!r})"
                )
            produced.add(out)
            ready.add(out)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.name!r}, {len(self.nodes)} nodes, {len(self.values)} values)"
