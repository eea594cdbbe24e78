"""Incremental recompilation: a process-wide cache of pass results.

A recipe-cache miss re-runs the whole pipeline even when the new
graph differs from a previously compiled one only in geometry (batch,
sequence length) or in downstream options (memory policy, bucket
size). Most passes do not read what changed: validation, view
elision, fusion grouping, recompile marking, and DMA staging decide
from graph *structure* alone, and lowering is a pure function of the
input graph. This module keys each such pass's recorded effect by the
sub-signature of the inputs it actually reads, so a sweep over batch
x seq x policy replays the structural decisions and re-runs only the
shape-dependent stages (slicing, emission, collective injection,
memory planning).

Keying. Every pass declares ``signature_deps`` — which graph
components (``"structure"``, ``"geometry"``) its decisions read — and
``option_deps``, the :class:`CompilerOptions` fields it consults. A
pass's cache key hashes those components of the graph *as it stands
when the pass runs* (so a rewrite by lowering or slicing
automatically invalidates downstream entries) together with the
pipeline prefix: the ordered ``(pass, enabled, read-options)`` record
of every pass executed so far. The prefix is what makes annotation
chains sound — fusion's grouping depends on elision's alias map, and
both are deterministic functions of the same keyed inputs.

Honesty is enforced two ways: the hypothesis equivalence suite
asserts replayed compilations are byte-identical to cold ones, and
``lint_passes`` flags passes whose declarations drift from what their
source actually reads.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from .base import CompilerPass

T = TypeVar("T")

#: graph components a pass may declare in ``signature_deps``
SIGNATURE_COMPONENTS = ("structure", "geometry")


#: lowered-graph nodes the pass cache's graph-carrying entries may
#: retain together; past it the least recently used of them go
MAX_GRAPH_NODES = 65_536


class PassResultCache:
    """Bounded LRU of recorded pass effects, shared process-wide.

    Values are ``(payload, signatures)`` pairs. The payload is what a
    pass's ``record`` hook returned (id maps, group node-id lists, a
    lowered ``Graph`` — all treated as immutable once stored);
    ``replay`` applies it to a fresh :class:`CompilationState`. When
    replaying installs a new graph, ``signatures`` holds that graph's
    component signatures (see :data:`SIGNATURE_COMPONENTS`), so a warm
    compile never re-walks it; otherwise it is ``None``. Nothing is
    serialized: unlike the recipe cache this tier never touches disk,
    it only amortizes repeated pipeline runs inside one process (a
    sweep).

    Two bounds hold: ``maxsize`` entries, and :data:`MAX_GRAPH_NODES`
    nodes across the entries that carry a graph. A graph outweighs a
    few hundred tuples by orders of magnitude, so the second bound is
    what caps memory in a long sweep; it evicts the least recently used
    graph-carrying entries, never the newest one.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()
        #: graph-carrying keys in LRU order -> their graph's node count
        self._graphs: "OrderedDict[str, int]" = OrderedDict()
        self._graph_nodes = 0

    def get(self, key: str) -> tuple | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        if key in self._graphs:
            self._graphs.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: tuple, graph_nodes: int = 0) -> None:
        """Store ``entry``; ``graph_nodes`` sizes the graph it carries."""
        self._graph_nodes -= self._graphs.pop(key, 0)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if graph_nodes:
            self._graphs[key] = graph_nodes
            self._graph_nodes += graph_nodes
        while len(self._entries) > self.maxsize:
            old, _ = self._entries.popitem(last=False)
            self._graph_nodes -= self._graphs.pop(old, 0)
        while self._graph_nodes > MAX_GRAPH_NODES and len(self._graphs) > 1:
            old, nodes = self._graphs.popitem(last=False)
            del self._entries[old]
            self._graph_nodes -= nodes

    def clear(self) -> None:
        self._entries.clear()
        self._graphs.clear()
        self._graph_nodes = 0
        self.hits = 0
        self.misses = 0

    def info(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "graphs": len(self._graphs),
            "graph_nodes": self._graph_nodes,
        }

    def __len__(self) -> int:
        return len(self._entries)


#: the process-wide cache every PassManager consults
_PASS_CACHE = PassResultCache()


#: structural products passes memoize under
#: ``CompilationState.structure_key`` (emission's op skeletons), by
#: ``(pass name, key)``; bounded, no counters
_STRUCTURAL: dict[tuple[str, str], object] = {}

#: entries :data:`_STRUCTURAL` keeps before it starts over
MAX_STRUCTURAL = 64


def structural_memo(name: str, key: str | None, build: Callable[[], T]) -> T:
    """``build()``, memoized under pass ``name`` and structure ``key``.

    ``key`` is a pass-cache key that pins the graph structure and the
    whole pipeline before the caller (see
    :attr:`~repro.synapse.passes.state.CompilationState.structure_key`),
    so whatever ``build`` derives from structure alone is a pure
    function of it. ``None`` (no structural replay in effect) builds
    afresh and stores nothing.
    """
    if key is None:
        return build()
    slot = (name, key)
    product = _STRUCTURAL.get(slot)
    if product is None:
        product = build()
        if len(_STRUCTURAL) >= MAX_STRUCTURAL:
            _STRUCTURAL.clear()
        _STRUCTURAL[slot] = product
    return product


def pass_cache() -> PassResultCache:
    """The process-wide pass-result cache."""
    return _PASS_CACHE


def reset_pass_cache() -> None:
    """Drop every cached pass result and structural memo (test
    isolation)."""
    _PASS_CACHE.clear()
    _STRUCTURAL.clear()


def pass_cache_stats() -> dict:
    """Hit/miss counters of the process-wide pass cache."""
    return _PASS_CACHE.info()


def pass_cache_key(
    compiler_pass: "CompilerPass",
    component_sigs: dict[str, str],
    option_values: tuple,
    prefix: tuple[str, ...],
) -> str:
    """Cache key for one pass at one pipeline position.

    ``component_sigs`` holds the current graph's signatures for the
    components the pass declared; ``prefix`` is the executed-pipeline
    record up to and including this pass.
    """
    h = hashlib.sha256()
    h.update(f"pass:{compiler_pass.name}\n".encode())
    for component in compiler_pass.signature_deps:
        h.update(f"{component}:{component_sigs[component]}\n".encode())
    h.update(f"options:{option_values!r}\n".encode())
    h.update(f"prefix:{prefix!r}\n".encode())
    return h.hexdigest()
