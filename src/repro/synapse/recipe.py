"""Recipe cache: compiled schedules keyed by canonical graph signatures.

SynapseAI compiles a graph into a *recipe* once and replays it on
every subsequent iteration — which is why the paper's training loops
pay a first-iteration compilation penalty and then run steady-state.
This module is that mechanism's analog: a canonical signature over
everything compilation reads (op kinds, shapes, dtypes, attrs,
provenance, device config, compiler options) keys an LRU cache of
:class:`~repro.synapse.schedule.Schedule` objects, so recompiling an
identical workload returns the cached recipe instead of re-running the
pass pipeline. First-compile vs. cached-iteration becomes a measured
phenomenon rather than a modeled constant.

Runtime-only options (``scheduler``, ``hbm_contention``,
``use_recipe_cache``, ``incremental``) are excluded from the key: they
do not change the compiled schedule.

The cache can also persist recipes to disk (``save_dir`` /
``--recipe-cache-dir``): every put writes a signature-keyed JSON blob,
and a memory miss falls back to loading the blob — so repeated study
or CLI invocations skip recompilation across processes, the way
SynapseAI's on-disk recipe store does. Corrupt or unreadable blobs
degrade to a plain miss.

The cache clones on both put and get, so hits are isolated: a caller
mutating a returned schedule (its ``stats``, ``memory`` plan, or ops)
cannot poison later hits, and the compiler mutating the schedule it
just stored cannot either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

from ..util.errors import GraphError
from .graph import Graph
from .schedule import Schedule
from .serialize import schedule_from_json, schedule_to_json

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..hw.config import GaudiConfig
    from .compiler import CompilerOptions

#: CompilerOptions fields that do not affect the compiled schedule
#: (``incremental`` only changes how fast compilation runs — replayed
#: pass results are byte-identical to recomputed ones)
_RUNTIME_ONLY_OPTIONS = (
    "scheduler", "hbm_contention", "use_recipe_cache", "incremental",
)

#: default on-disk recipe directory when persistence is requested
#: without an explicit path (``--recipe-cache-dir`` with no argument)
DEFAULT_RECIPE_CACHE_DIR = "~/.cache/repro-recipes"

#: process-wide default save dir; ``None`` keeps caches memory-only
_default_save_dir: Path | None = None

#: process-wide counters across every RecipeCache instance — the
#: ``study`` report's hit/miss line aggregates these
_global_stats = {"hits": 0, "misses": 0, "disk_hits": 0}


def set_default_recipe_cache_dir(path: "str | Path | None") -> None:
    """Set (or clear, with ``None``) the process-wide recipe directory.

    Caches constructed without an explicit ``save_dir`` persist here;
    the CLI's ``--recipe-cache-dir`` flag routes through this.
    """
    global _default_save_dir
    _default_save_dir = Path(path).expanduser() if path else None


def default_recipe_cache_dir() -> Path | None:
    """The process-wide recipe directory (None = memory-only)."""
    return _default_save_dir


def recipe_cache_stats() -> dict:
    """Process-wide hit/miss/disk-hit counters across every cache."""
    return dict(_global_stats)


def reset_recipe_cache_stats() -> None:
    """Zero the process-wide counters (test isolation)."""
    for key in _global_stats:
        _global_stats[key] = 0


def signatures(graph: Graph) -> tuple[str, str, str]:
    """``(graph, structure, geometry)`` signatures of ``graph``, one walk.

    * graph — the canonical content hash (structure, shapes, dtypes).
      Two graphs built by identical frontend programs — e.g. the same
      training step re-recorded every iteration — produce the same
      signature; any change to an op kind, shape, dtype, attribute,
      value kind, or provenance changes it. It keys the recipe cache.
    * structure — everything *except* geometry: op kinds,
      connectivity, dtypes, value kinds/names, provenance, and
      gradient markings — the inputs the structural compiler passes
      (validation, view elision, fusion grouping, recompile marking,
      DMA staging) read for their decisions. Two sweep points of the
      same model that differ only in batch/sequence sizes share it,
      which is what lets the incremental pass cache replay those
      passes' decisions (see :mod:`repro.synapse.passes.incremental`).
    * geometry — value shapes + node attributes, the complement of
      structure. Node attributes are deliberately geometry: they
      routinely embed concrete extents — reshape/broadcast targets,
      slice windows, and derived scalars like ``mean_bwd``'s
      ``alpha = 1/numel`` — so any attribute-reading pass must declare
      geometry dependence (the ``lint_passes`` rule polices this).

    Each is a SHA-256 hex digest over newline-terminated records, the
    three fed from the same pass over values and nodes.
    """
    full = [f"graph:{graph.name}\n"]
    struct = [f"structure:{graph.name}\n"]
    geom = ["geometry\n"]
    # a graph repeats a few dozen shapes: print each once per walk
    # (shapes hold only ints, so equal shapes print alike); a dtype's
    # ``_value_`` is ``.value`` without the enum descriptor's cost
    shape_text: dict[tuple, str] = {}
    for vid, v in sorted(graph.values.items()):
        text = shape_text.get(v.shape)
        if text is None:
            text = shape_text[v.shape] = str(v.shape)
        shape = f"v:{vid}:{text}"
        meta = f"{v.dtype._value_}:{v.kind}:{v.name}\n"
        full.append(f"{shape}:{meta}")
        struct.append(f"v:{vid}:{meta}")
        geom.append(f"{shape}\n")
    for n in graph.nodes:
        attrs = repr(sorted(n.attrs.items())) if n.attrs else "[]"
        head = f"n:{n.nid}:{n.op}:{n.inputs}:{n.output}:"
        tail = f"{n.src}:{n.scope}\n"
        full.append(f"{head}{attrs}:{tail}")
        struct.append(head + tail)
        geom.append(f"n:{n.nid}:{attrs}\n")
    if graph.metadata:
        # Gradient markings (and any future annotations) feed compiler
        # passes — collective_injection buckets by them — so they are
        # part of what compilation reads.
        marks = f"m:{sorted(graph.metadata.items())!r}\n"
        full.append(marks)
        struct.append(marks)
    return tuple(
        hashlib.sha256("".join(lines).encode()).hexdigest()
        for lines in (full, struct, geom)
    )


def graph_signature(graph: Graph) -> str:
    """The recipe-cache content hash of ``graph`` (see :func:`signatures`)."""
    return signatures(graph)[0]


def options_signature(options: "CompilerOptions") -> str:
    """Stable signature of the compile-relevant option fields."""
    fields = {
        k: v for k, v in dataclasses.asdict(options).items()
        if k not in _RUNTIME_ONLY_OPTIONS
    }
    return repr(sorted(fields.items()))


def recipe_key(
    graph: Graph, config: "GaudiConfig", options: "CompilerOptions"
) -> str:
    """Full cache key: graph signature x device config x options."""
    return recipe_key_from_signature(graph_signature(graph), config, options)


def recipe_key_from_signature(
    graph_sig: str, config: "GaudiConfig", options: "CompilerOptions"
) -> str:
    """:func:`recipe_key` from an already computed graph signature."""
    h = hashlib.sha256()
    h.update(graph_sig.encode())
    h.update(repr(config).encode())
    h.update(options_signature(options).encode())
    return h.hexdigest()


class RecipeCache:
    """A bounded LRU cache of compiled schedules with hit/miss counters.

    With a ``save_dir`` (explicit, or the process default set through
    :func:`set_default_recipe_cache_dir`), every put also writes a
    signature-keyed JSON blob and a memory miss falls back to loading
    it — recipes survive across processes. Disk I/O is best-effort:
    unreadable or corrupt blobs degrade to a plain miss, and write
    failures leave the in-memory cache intact.
    """

    def __init__(
        self, maxsize: int = 32, save_dir: "str | Path | None" = None
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self._explicit_save_dir = (
            Path(save_dir).expanduser() if save_dir else None
        )
        self._entries: "OrderedDict[str, Schedule]" = OrderedDict()

    @property
    def save_dir(self) -> Path | None:
        """Effective persistence directory (explicit beats process
        default; resolved per access so the CLI can set the default
        after caches exist)."""
        return self._explicit_save_dir or _default_save_dir

    def _blob_path(self, key: str) -> Path:
        return self.save_dir / f"{key}.json"

    def _load_from_disk(self, key: str) -> Schedule | None:
        if self.save_dir is None:
            return None
        path = self._blob_path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return schedule_from_json(text)
        except GraphError:
            # corrupt blob -> plain miss; drop it so the put that
            # follows the recompile can publish a good copy (an
            # existing blob otherwise suppresses republication)
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _save_to_disk(self, key: str, schedule: Schedule) -> None:
        if self.save_dir is None:
            return
        try:
            self.save_dir.mkdir(parents=True, exist_ok=True)
            path = self._blob_path(key)
            if path.exists():
                # The key hashes everything compilation reads, so an
                # existing blob was published by an identical writer —
                # a sweep worker racing this one on the same recipe.
                # Rewriting the same bytes is wasted I/O at best and a
                # reader-visible window at worst; tolerate the race by
                # leaving the first publication in place.
                return
            # atomic publish: write a process-private temp file, then
            # rename onto the final name. Concurrent identical writers
            # each rename a complete blob — whichever lands last wins,
            # and readers only ever see complete content.
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            try:
                tmp.write_text(schedule_to_json(schedule))
                tmp.replace(path)
            except OSError:
                # never leave a stale temp behind a failed publish
                try:
                    tmp.unlink()
                except OSError:
                    pass
                raise
        except OSError:
            pass  # persistence is best-effort

    def get(self, key: str) -> Schedule | None:
        """A private copy of the cached schedule, or None.

        Returns a clone so callers can mutate their schedule without
        corrupting the cached recipe (counts hit/miss). A memory miss
        checks the on-disk store (when configured) before giving up;
        a disk hit repopulates the memory tier.
        """
        entry = self._entries.get(key)
        if entry is None:
            entry = self._load_from_disk(key)
            if entry is None:
                self.misses += 1
                _global_stats["misses"] += 1
                return None
            self.disk_hits += 1
            _global_stats["disk_hits"] += 1
            self._entries[key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        self._entries.move_to_end(key)
        self.hits += 1
        _global_stats["hits"] += 1
        return entry.clone()

    def put(self, key: str, schedule: Schedule) -> None:
        """Insert a compiled schedule, evicting the LRU entry if full.

        Stores a clone: the caller keeps exclusive ownership of the
        object it passed in. With persistence on, also writes the
        signature-keyed blob (atomically: write-temp + rename).
        """
        self._entries[key] = schedule.clone()
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        self._save_to_disk(key, schedule)

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters (the
        on-disk store, if any, is left in place)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def info(self) -> dict:
        """Counters snapshot: hits, misses, current size, capacity."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "save_dir": str(self.save_dir) if self.save_dir else None,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries
