"""Compiled-schedule data structures.

The GraphCompiler turns a (lowered) graph into a :class:`Schedule`: a
program-ordered list of :class:`ScheduledOp` — compute ops tagged with
their engine and :class:`~repro.hw.costmodel.WorkItem`, interleaved
with the DMA staging transfers and host recompilation events the
compiler inserted. The runtime only sees this structure.

A compiled schedule's sequence fields are tuples and are never changed
in place: a pass that re-indexes ops assigns new tuples. Clones are
therefore shallow — an op clone is one new object sharing its tuples,
and a schedule clone copies only the containers a caller may mutate.
"""

from __future__ import annotations

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
    items: tuple[WorkItem, ...]
    #: indices of ScheduledOps that must complete first, ascending
    deps: tuple[int, ...] = ()
    src: str = ""
    scope: str = ""
    #: value ids this op reads / produces (memory planning); DMA and
    #: host ops reference the staged value via ``reads``
    reads: tuple[int, ...] = ()
    writes: tuple[int, ...] = ()
    #: node ids of the graph nodes folded into this op
    node_ids: tuple[int, ...] = ()
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
        """A shallow copy: the sequence fields are shared tuples.

        Fills the instance ``__dict__`` directly, which costs less than
        the generated ``__init__`` behind ``dataclasses.replace``.
        """
        op = object.__new__(type(self))
        op.__dict__.update(self.__dict__)
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
        """A cache-isolation copy of every mutable layer.

        The graph is shared (compilation and execution treat it as
        immutable), and so are the ops' tuples; the op list, each op,
        the memory plan, and the dicts and lists of ``stats`` are
        copied, so a caller reassigning or mutating them in one
        compile's output cannot poison another (the recipe cache
        relies on this).
        """
        return Schedule(
            graph=self.graph,
            ops=[op.clone() for op in self.ops],
            memory=MemoryPlan(
                persistent_bytes=self.memory.persistent_bytes,
                peak_bytes=self.memory.peak_bytes,
                free_after=dict(self.memory.free_after),
            ),
            stats=_copy_json(self.stats),
        )

    def __len__(self) -> int:
        return len(self.ops)


def _copy_json(value):
    """Copy JSON-shaped ``value``: new dicts and lists, shared leaves.

    Scalars, strings and tuples are immutable, so sharing them is safe;
    ``stats`` holds nothing else (it round-trips through JSON).
    """
    if type(value) is dict:
        return {k: _copy_json(v) for k, v in value.items()}
    if type(value) is list:
        return [
            _copy_json(v) if type(v) in (dict, list) else v for v in value
        ]
    return value
