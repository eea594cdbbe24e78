"""Pass protocol and the PassManager that drives the pipeline.

The GraphCompiler is an ordered list of named passes over a shared
:class:`~repro.synapse.passes.state.CompilationState`. The manager
times every pass, records nodes in/out and transform counts into
``Schedule.stats["passes"]``, and honours the per-pass enable flags on
:class:`~repro.synapse.compiler.CompilerOptions` — which is what makes
single-pass ablations (`--disable-pass`) possible.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ...hw.config import GaudiConfig
from ..graph import Graph
from ..recipe import signatures
from ..schedule import MemoryPlan, Schedule
from .incremental import SIGNATURE_COMPONENTS, pass_cache, pass_cache_key
from .state import CompilationState

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..compiler import CompilerOptions


def _component_sigs(graph: Graph) -> dict[str, str]:
    """``graph``'s signatures by :data:`SIGNATURE_COMPONENTS` name."""
    return dict(zip(SIGNATURE_COMPONENTS, signatures(graph)[1:]))


class CompilerPass:
    """One named transformation in the compilation pipeline.

    Subclasses set ``name`` (stable, used by stats/CLI) and optionally
    ``option_flag`` — the :class:`CompilerOptions` boolean that gates
    the pass. A pass without a flag always runs (e.g. emission).

    Incremental recompilation contract: ``signature_deps`` declares
    which graph components the pass's *decisions* read
    (``"structure"``, ``"geometry"`` — see
    :func:`~repro.synapse.recipe.signatures`), and
    ``option_deps`` the :class:`CompilerOptions` fields it consults.
    A pass that additionally sets ``incremental = True`` and
    implements ``record``/``replay`` gets its effect cached by the
    sub-signature of exactly those inputs; declarations are audited by
    :func:`~repro.synapse.lint.lint_passes`.
    """

    #: stable pass name (stats entries, ``--disable-pass`` argument)
    name: str = "pass"
    #: CompilerOptions field enabling this pass; ``None`` = always on
    option_flag: str | None = None
    #: graph components the pass's decisions depend on; the default —
    #: everything — is always sound but never cacheable across sweeps
    signature_deps: tuple[str, ...] = ("structure", "geometry")
    #: CompilerOptions fields the pass reads while running
    option_deps: tuple[str, ...] = ()
    #: whether the pass records a replayable effect (``record``/``replay``)
    incremental: bool = False

    def enabled(self, options: "CompilerOptions") -> bool:
        """Whether the pass is enabled under ``options``."""
        if self.option_flag is None:
            return True
        return bool(getattr(options, self.option_flag))

    def run(self, state: CompilationState) -> dict:
        """Apply the transformation; returns pass-specific stats."""
        raise NotImplementedError

    def run_disabled(self, state: CompilationState) -> dict:
        """Keep the pipeline well-formed when the pass is toggled off.

        Most passes simply do nothing; structural passes (grouping)
        still build their output representation without transforming.
        """
        return {}

    def record(self, state: CompilationState) -> dict | None:
        """The replayable effect of the ``run`` that just executed.

        Called immediately after a successful ``run`` when the pass is
        ``incremental``; the returned payload must let ``replay``
        reproduce the identical state mutation on any state whose
        declared components match. ``None`` opts out of caching this
        particular run.
        """
        return None

    def replay(self, state: CompilationState, payload: dict) -> dict:
        """Apply a previously recorded effect; returns pass stats."""
        raise NotImplementedError

    def option_values(self, options: "CompilerOptions") -> tuple:
        """The declared option fields' current values (key material)."""
        return tuple(getattr(options, f) for f in self.option_deps)


class PassManager:
    """Runs an ordered pass list and assembles the final Schedule."""

    def __init__(
        self,
        config: GaudiConfig,  # or any backend's device config
        options: "CompilerOptions",
        passes: list[CompilerPass],
    ):
        self.config = config
        self.options = options
        self.passes = passes

    def run(
        self, graph: Graph, graph_sigs: tuple[str, str] | None = None
    ) -> Schedule:
        """Compile ``graph`` through every pass; raises on OOM/invalid.

        With ``options.incremental`` (the default), passes that declare
        a replayable effect consult the process-wide pass cache: a hit
        replays the recorded decisions against the current state
        (byte-identical to re-running — the cache key covers every
        input the pass reads), a miss runs the pass and records it.
        Each stats entry carries ``incremental: "hit"|"miss"`` for
        cacheable passes and ``""`` otherwise; the compile-level
        summary lands in ``stats["incremental"]``.

        ``graph_sigs`` is ``graph``'s (structure, geometry) signature
        pair when the caller has already walked it; otherwise the first
        cacheable pass walks it.
        """
        state = CompilationState(graph=graph, config=self.config,
                                 options=self.options)
        use_cache = bool(getattr(self.options, "incremental", False))
        cache = pass_cache() if use_cache else None
        # signatures are per graph *object*: a rewrite (lowering,
        # slicing) swaps the object and naturally invalidates these.
        # A graph a cache entry installs is immutable and comes with
        # its signatures; any other new graph is walked when a
        # cacheable pass first needs its key.
        sig_graph: Graph | None = None
        sigs: dict[str, str] = {}
        if graph_sigs is not None:
            sig_graph = graph
            sigs = dict(zip(SIGNATURE_COMPONENTS, graph_sigs))
        # ordered (pass, enabled, read-options) record — the pipeline
        # prefix that makes chained annotation decisions part of every
        # downstream key. Seeded with the backend: placement decisions
        # (grouping engines, staging sets) are backend-shaped, so a
        # recorded effect must never replay under another backend.
        prefix: list[str] = [
            f"backend:{getattr(self.options, 'backend', 'gaudi')}"
        ]
        reused = recomputed = 0
        for compiler_pass in self.passes:
            enabled = compiler_pass.enabled(self.options)
            opt_values = compiler_pass.option_values(self.options)
            prefix.append(
                f"{compiler_pass.name}:{enabled}"
                + (f":{opt_values!r}" if enabled else "")
            )
            units_in = state.unit_count()
            cacheable = use_cache and enabled and compiler_pass.incremental
            key = None
            mode = ""
            t0 = time.perf_counter()
            graph_in = state.graph
            if cacheable:
                if graph_in is not sig_graph:
                    sig_graph = graph_in
                    sigs = _component_sigs(graph_in)
                key = pass_cache_key(
                    compiler_pass, sigs, opt_values, tuple(prefix)
                )
                cached = cache.get(key)
                if cached is not None:
                    payload, installed_sigs = cached
                    extra = compiler_pass.replay(state, payload) or {}
                    if state.graph is not graph_in:
                        sig_graph, sigs = state.graph, installed_sigs
                    mode = "hit"
                    reused += 1
            if not mode:
                extra = (
                    compiler_pass.run(state) if enabled
                    else compiler_pass.run_disabled(state)
                ) or {}
                if cacheable:
                    payload = compiler_pass.record(state)
                    if payload is not None:
                        installed_sigs = None
                        graph_nodes = 0
                        if state.graph is not graph_in:
                            # the entry will install this graph on
                            # replay: it is final now, so walk it once
                            sig_graph = state.graph
                            sigs = installed_sigs = _component_sigs(
                                sig_graph
                            )
                            graph_nodes = len(sig_graph.nodes)
                        cache.put(
                            key, (payload, installed_sigs), graph_nodes
                        )
                    mode = "miss"
                    recomputed += 1
            state.structure_key = (
                key if compiler_pass.signature_deps == ("structure",)
                else None
            )
            wall_us = (time.perf_counter() - t0) * 1e6
            entry = {
                "pass": compiler_pass.name,
                "enabled": enabled,
                "units_in": units_in,
                "units_out": state.unit_count(),
                "wall_us": wall_us,
                "transforms": extra.pop("transforms", 0),
                "incremental": mode,
            }
            entry.update(extra)
            state.stats["passes"].append(entry)
        if use_cache:
            state.stats["incremental"] = {
                "reused": reused, "recomputed": recomputed,
            }
        return Schedule(
            graph=state.graph,
            ops=state.ops if state.ops is not None else [],
            memory=state.memory or MemoryPlan(0, 0, {}),
            stats=state.stats,
        )
