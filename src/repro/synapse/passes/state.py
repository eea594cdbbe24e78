"""Shared mutable state threaded through the compiler pass pipeline.

Every :class:`~repro.synapse.passes.base.CompilerPass` consumes and
produces one :class:`CompilationState`. The state mirrors the stages a
graph moves through inside SynapseAI's Graph Compiler:

``graph`` (the IR, possibly rewritten by lowering) -> ``alias`` /
``elided`` (view elision's annotations) -> ``pending`` (fusion groups
tagged with their engine) -> ``ops`` (the emitted schedule) ->
``memory`` (the liveness plan).

Keeping the intermediate products explicit is the point of the
refactor: each transformation can be toggled, measured, and ablated
independently — the inspectability the paper asks SynapseAI for (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ...hw.backend import Backend, get_backend
from ...hw.config import GaudiConfig
from ...hw.costmodel import EngineKind, WorkItem
from ..graph import Graph, Node
from ..ops import OpDef
from ..ops import op as op_def
from ..schedule import MemoryPlan, ScheduledOp

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..compiler import CompilerOptions


@dataclass
class PendingOp:
    """A compute op being assembled (possibly absorbing fused nodes)."""

    nodes: list[Node]
    engine: EngineKind
    items: tuple[WorkItem, ...]
    #: storage vids read from outside the op, ascending
    reads: tuple[int, ...] = ()
    #: HBM bytes of every member's chain-external reads (per read, not
    #: deduplicated — mirrors ``WorkItem.bytes_read`` accounting)
    external_read_bytes: int = 0
    #: set by RecompileInjectionPass: emit a host stall before this op
    needs_recompile: bool = False
    #: set by DmaStagingPass: reads that must be staged through a DMA op
    dma_reads: set[int] = field(default_factory=set)

    @property
    def output_vid(self) -> int:
        """Value id produced by the (last node of the) pending op."""
        return self.nodes[-1].output


@dataclass
class CompilationState:
    """Everything a pass may read or write."""

    graph: Graph
    config: GaudiConfig
    options: "CompilerOptions"
    #: the accelerator model compilation targets; passes consult its
    #: placement table and role engines instead of naming EngineKind
    #: members (the ``lint_passes`` backend-coupling rule polices this).
    #: Resolved from ``options.backend`` when not supplied.
    backend: Backend = None  # type: ignore[assignment]
    #: view-output vid -> the underlying storage's vid (ViewElisionPass)
    alias: dict[int, int] = field(default_factory=dict)
    #: node ids elided as pure views (ViewElisionPass)
    elided: set[int] = field(default_factory=set)
    #: fusion's structural decisions, one plan per pending op — the
    #: payload ElementwiseFusionPass records and replays
    groups: list | None = None
    #: fusion groups in program order (ElementwiseFusionPass); ``None``
    #: until the grouping stage has run
    pending: list[PendingOp] | None = None
    #: emitted schedule (EmitSchedulePass); ``None`` until emission
    ops: list[ScheduledOp] | None = None
    #: liveness plan (MemoryPlanningPass)
    memory: MemoryPlan | None = None
    #: the pass-cache key of the pass that ran last, when that pass was
    #: cacheable and keyed on structure alone; it then pins the graph
    #: structure and every decision so far, and the next pass may
    #: memoize structural work under it (see ``structural_memo``)
    structure_key: str | None = None
    #: compiler statistics; ``stats["passes"]`` is the per-pass report
    stats: dict = field(default_factory=lambda: {"passes": []})
    _opdefs: dict[str, OpDef] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.backend is None:
            self.backend = get_backend(
                getattr(self.options, "backend", "gaudi")
            )

    def opdef(self, name: str) -> OpDef:
        """Memoized registry lookup (one ``op_def`` call per op kind)."""
        cached = self._opdefs.get(name)
        if cached is None:
            cached = self._opdefs[name] = op_def(name)
        return cached

    def unit_count(self) -> int:
        """Size of the representation the pipeline currently holds.

        Graph nodes before grouping, pending groups after fusion,
        scheduled ops after emission — the "nodes in/out" figure each
        pass reports.
        """
        if self.ops is not None:
            return len(self.ops)
        if self.pending is not None:
            return len(self.pending)
        return len(self.graph.nodes)
