"""Compiled-schedule data structures.

The GraphCompiler turns a (lowered) graph into a :class:`Schedule`: a
program-ordered list of :class:`ScheduledOp` — compute ops tagged with
their engine and :class:`~repro.hw.costmodel.WorkItem`, interleaved
with the DMA staging transfers and host recompilation events the
compiler inserted. The runtime only sees this structure.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..hw.costmodel import EngineKind, WorkItem
from .graph import Graph


@dataclass
class ScheduledOp:
    """One schedulable unit (possibly a fused elementwise chain)."""

    index: int
    label: str
    engine: EngineKind
    #: the member work items; length > 1 only for fused chains
    items: list[WorkItem]
    #: indices of ScheduledOps that must complete first
    deps: list[int] = field(default_factory=list)
    src: str = ""
    scope: str = ""
    #: value ids this op reads / produces (memory planning); DMA and
    #: host ops reference the staged value via ``reads``
    reads: list[int] = field(default_factory=list)
    writes: list[int] = field(default_factory=list)
    #: node ids of the graph nodes folded into this op
    node_ids: list[int] = field(default_factory=list)
    #: HBM bytes read from outside the op across *all* members — for a
    #: fused chain this includes external inputs feeding middle members,
    #: which the first member's ``bytes_read`` alone misses. ``None``
    #: for ops built outside the compiler (runtime falls back to the
    #: first member's declared reads).
    external_read_bytes: int | None = None

    @property
    def is_fused(self) -> bool:
        """Whether this op is a fused elementwise chain."""
        return len(self.items) > 1

    @property
    def flops(self) -> float:
        """Total arithmetic work."""
        return sum(item.flops for item in self.items)

    def clone(self) -> "ScheduledOp":
        """Copy with fresh mutable containers (items are frozen).

        Fills the instance ``__dict__`` directly: the generated
        ``__init__`` behind ``dataclasses.replace`` costs about as much
        again as the five list copies.
        """
        op = object.__new__(type(self))
        op.__dict__.update(
            self.__dict__,
            items=list(self.items),
            deps=list(self.deps),
            reads=list(self.reads),
            writes=list(self.writes),
            node_ids=list(self.node_ids),
        )
        return op


@dataclass
class MemoryPlan:
    """Liveness result over the schedule order."""

    #: bytes of persistent values (params + consts), live for the run
    persistent_bytes: int
    #: peak live bytes including activations
    peak_bytes: int
    #: schedule index after which each value id can be freed
    free_after: dict[int, int]

    def fits(self, capacity_bytes: int) -> bool:
        """Whether the plan fits the given HBM capacity."""
        return self.peak_bytes <= capacity_bytes


@dataclass
class Schedule:
    """The compiler's output: ops in program order plus bookkeeping."""

    graph: Graph
    ops: list[ScheduledOp]
    memory: MemoryPlan
    #: compiler statistics for reports
    stats: dict = field(default_factory=dict)

    def engine_queue(self, engine: EngineKind) -> list[ScheduledOp]:
        """This engine's ops in program (issue) order."""
        return [op for op in self.ops if op.engine is engine]

    def total_flops(self) -> float:
        """Arithmetic work across all ops."""
        return sum(op.flops for op in self.ops)

    def clone(self) -> "Schedule":
        """A cache-isolation copy: every mutable layer is duplicated.

        The graph is shared (compilation and execution treat it as
        immutable); ops, the memory plan, and stats are copied so a
        caller mutating one compile's output cannot poison another
        (the recipe cache relies on this).
        """
        return Schedule(
            graph=self.graph,
            ops=[op.clone() for op in self.ops],
            memory=MemoryPlan(
                persistent_bytes=self.memory.persistent_bytes,
                peak_bytes=self.memory.peak_bytes,
                free_after=dict(self.memory.free_after),
            ),
            stats=copy.deepcopy(self.stats),
        )

    def __len__(self) -> int:
        return len(self.ops)
