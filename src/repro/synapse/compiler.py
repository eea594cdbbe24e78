"""The GraphCompiler: an ordered pass pipeline with a recipe cache.

This is the stand-in for SynapseAI's Graph Compiler, whose behaviour
drives most of the paper's findings. Compilation is an explicit
sequence of named passes (see :mod:`repro.synapse.passes`) over a
shared :class:`~repro.synapse.passes.state.CompilationState`:

* ``validate`` — structural graph checks.
* ``attention_lowering`` — the kernel-pack choice: softmax/attention
  cones rewritten per ``attention_lowering`` (naive is the identity).
* ``lower_composites`` — composite ops (softmax, layernorm, ...)
  rewritten into primitives.
* ``view_elision`` — pure-view ops (reshape, broadcast, contiguous
  row slices) become aliases instead of engine slots.
* ``elementwise_fusion`` — same-source TPC chains merge so
  intermediates stay on-chip (toggleable for the fusion ablation).
* ``recompile_injection`` — unsupported ops (GLU, §3.3) get a host
  recompilation event that stalls everything behind it.
* ``dma_staging`` — values crossing the MME/TPC boundary transfer
  through shared memory (mostly pipelined; see
  :class:`~repro.hw.config.DMAConfig`).
* ``emit`` — assemble ScheduledOps; engine mapping follows Table 1
  via the op registry (matmul to the MME, everything else to the TPC)
  and per-engine issue preserves program order, which is what turns a
  serial matmul->softmax->matmul chain into MME idle gaps (Fig. 4).
  The ``scheduler`` option gives the runtime license to pick any
  ready op (``"reorder"``, ``"lookahead"``: the ablation the paper
  wishes for).
* ``tensor_parallel`` — weight matmuls shard over the TP group with
  all-gather/all-reduce NIC ops on the marked weight dims (off at
  ``tp=1``).
* ``collective_injection`` — marked parameter gradients are bucketed
  into all-reduce NIC ops anchored to their producing backward ops
  (the multi-card DDP path; off by default).
* ``pipeline_partition`` — the schedule splits into ``pp``
  duration-balanced stages with point-to-point send/recv boundary
  ops; the multi-card runtime interleaves ``microbatches`` of the
  per-stage sub-schedules (off at ``pp=1``).
* ``memory_planning`` — peak HBM footprint by interval liveness; with
  ``memory_policy="none"`` schedules over the budget are rejected —
  the constraint that pushed the paper's end-to-end batch size down
  to 8. The other policies actively plan: checkpointed activations
  recompute and long-lived values spill through paired DMA ops until
  the peak fits ``hbm_budget``.

Each pass reports nodes in/out, wall-clock, and transform counts into
``Schedule.stats["passes"]``. Compiled schedules are memoized in a
per-compiler :class:`~repro.synapse.recipe.RecipeCache` keyed by the
canonical graph/config/options signature — SynapseAI's recipe
mechanism, which is why iteration 1 of a training loop pays a
compilation penalty and steady-state iterations do not.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..hw.backend import get_backend
from ..hw.config import GaudiConfig
from ..util.errors import ConfigError, GraphError
from ..util.gc_pause import gc_paused
from ..util.validation import check_non_negative, check_positive
from .graph import Graph
from .passes import PASS_OPTION_FLAGS, PassManager, default_passes
from .recipe import RecipeCache, recipe_key_from_signature, signatures
from .schedule import Schedule


@dataclass(frozen=True)
class CompilerOptions:
    """Knobs of the graph compiler (defaults mimic SynapseAI).

    Every boolean toggle maps onto one pipeline pass (see
    :data:`~repro.synapse.passes.PASS_OPTION_FLAGS`); use
    :func:`disable_passes` to turn passes off by name.
    """

    lower_composites: bool = True
    fuse_elementwise: bool = True
    insert_dma: bool = True
    #: alias pure-view ops (reshape, broadcast, contiguous row slices)
    #: instead of scheduling them — a zero-cost view must not occupy an
    #: in-order engine slot (it would serialize software pipelines)
    elide_views: bool = True
    #: model HBM bandwidth as one shared, arbitrated resource: ops with
    #: overlapping execution split the effective bandwidth (processor
    #: sharing), stretching memory-bound phases that co-execute. Off,
    #: every engine sees the full bandwidth — the pre-contention model
    #: (``--no-hbm-contention``). Runtime-only: does not change the
    #: compiled schedule, only how the runtime times it.
    hbm_contention: bool = True
    #: host recompilation penalty for poorly supported ops (GLU)
    recompile_penalty_us: float = 2500.0
    #: charge the penalty only on the first occurrence of each op kind
    recompile_once: bool = True
    #: reject schedules whose peak footprint exceeds HBM capacity
    enforce_memory: bool = True
    #: run structural graph validation before compiling
    validate_graph: bool = True
    #: emit host recompilation stalls for unsupported ops
    inject_recompiles: bool = True
    #: compute the liveness/footprint plan (enforcement still gated by
    #: ``enforce_memory``)
    plan_memory: bool = True
    #: memoize compiled schedules by graph/config/options signature
    use_recipe_cache: bool = True
    #: incremental recompilation: cache pass results by the
    #: sub-signature of the inputs each pass actually reads, so recipe
    #: misses that change only geometry (batch/seq) or downstream
    #: options replay the structural decisions (validate, view
    #: elision, fusion grouping, recompile marks, DMA staging) and
    #: re-run only shape-dependent stages. Replayed compiles are
    #: byte-identical to cold ones; per-pass hit/miss lands in
    #: ``Schedule.stats["passes"]`` (no CLI flag; library callers pass
    #: ``incremental=False``)
    incremental: bool = True
    #: bucket marked parameter gradients into all-reduce NIC ops (the
    #: multi-card DDP path; harmless but off by default for single-card
    #: experiments)
    inject_collectives: bool = False
    #: gradient-bucket size for collective injection (``--bucket-mb``)
    bucket_mb: float = 25.0
    #: overlap gradient all-reduce with backward compute by bucketing;
    #: off = one monolithic all-reduce after the last gradient
    #: (``--no-comm-overlap``)
    comm_overlap: bool = True
    #: runtime issue policy (``--scheduler``): ``"inorder"`` (per-engine
    #: program order, what SynapseAI does), ``"reorder"`` (greedy
    #: earliest-ready list scheduler) or ``"lookahead"`` (critical-path
    #: list scheduler with an MME-starvation tiebreak). The two
    #: out-of-order policies are the "what if the compiler detected
    #: independence" ablations. Runtime-only: selects how the runtime
    #: orders ready ops.
    scheduler: str = "inorder"
    #: split large batch-parallel TPC ops (softmax, feature-map exp,
    #: activations) into row slices that pipeline against pending MME
    #: work (the ``tpc_slicing`` pass; off by default — it changes the
    #: schedule shape, so every default-behaviour figure stays intact)
    tpc_slice_ops: bool = False
    #: minimum estimated TPC time (us) of a chain's anchor op before
    #: the slicing pass will split it; small ops aren't worth the
    #: per-slice launch overhead
    tpc_slice_min_us: float = 200.0
    #: HBM budget in bytes the memory planner targets/enforces; None
    #: means the device's full capacity (``--hbm-budget``)
    hbm_budget: int | None = None
    #: what ``memory_planning`` may do when the peak exceeds the
    #: budget: ``"none"`` (reject only, the historical behaviour),
    #: ``"recompute"`` (re-emit checkpointed forward segments),
    #: ``"spill"`` (paired DMA offload/prefetch), or ``"auto"``
    #: (cost-model pick per over-budget value) — ``--memory-policy``
    memory_policy: str = "none"
    #: tensor-parallel group width: shard weight matmuls over ``tp``
    #: cards and inject the TP all-gather/all-reduce collectives (the
    #: ``tensor_parallel`` pass; 1 = off, ``--tp``)
    tp: int = 1
    #: pipeline-parallel stage count: partition the schedule into
    #: ``pp`` duration-balanced stages with send/recv boundary ops (the
    #: ``pipeline_partition`` pass; 1 = off, ``--pp``)
    pp: int = 1
    #: microbatches per step the pipeline runtime interleaves
    #: (``--microbatches``); the compiled graph is one microbatch
    microbatches: int = 1
    #: attention/softmax kernel choice for the ``attention_lowering``
    #: pass: ``"naive"`` (the identity — byte-identical to historical
    #: compiles), ``"fused"`` (softmax with MME exp-as-matmul offload),
    #: ``"windowed"`` (banded sliding-window attention on the TPC) or
    #: ``"flash"`` (tiled online-softmax attention on the MME; the
    #: score matrix never reaches HBM). Recipe-keyed like any
    #: non-runtime option (``--attention-kernel``)
    attention_lowering: str = "naive"
    #: sliding-window width (keys per query) of the ``"windowed"``
    #: attention lowering
    attention_window: int = 512
    #: target accelerator model: a name from
    #: :func:`repro.hw.backend.backend_names` (``"gaudi"`` — the
    #: paper's device and the default — or ``"wse"``). Selects the
    #: engine-placement table, memory hierarchy, and cost model every
    #: pass and the runtime consult; keys both recipe-cache tiers like
    #: any compile-time option (``--backend``)
    backend: str = "gaudi"

    def __post_init__(self) -> None:
        """Reject numeric knobs no compile or execute can honour, so a
        bad value fails here with a :class:`ConfigError` instead of
        running silently or surfacing deep inside the runtime."""
        if not math.isfinite(self.recompile_penalty_us):
            raise ConfigError(
                "recompile_penalty_us must be finite, got "
                f"{self.recompile_penalty_us!r}"
            )
        check_non_negative("recompile_penalty_us", self.recompile_penalty_us)
        check_non_negative("tpc_slice_min_us", self.tpc_slice_min_us)
        check_positive("bucket_mb", self.bucket_mb)
        for name in ("tp", "pp", "microbatches", "attention_window"):
            check_positive(name, getattr(self, name))
        if self.hbm_budget is not None:
            check_positive("hbm_budget", self.hbm_budget)

    def runtime_kwargs(self) -> dict:
        """The runtime-only options as :meth:`Runtime.execute` keywords."""
        return dict(
            scheduler=self.scheduler, hbm_contention=self.hbm_contention
        )


def disable_passes(
    options: CompilerOptions, *names: str
) -> CompilerOptions:
    """A copy of ``options`` with the named pipeline passes turned off.

    Names are pass names (``"elementwise_fusion"``, ``"dma_staging"``,
    ...); see :data:`~repro.synapse.passes.PASS_OPTION_FLAGS`.
    """
    flags = {}
    for name in names:
        flag = PASS_OPTION_FLAGS.get(name)
        if flag is None:
            known = ", ".join(sorted(PASS_OPTION_FLAGS))
            raise ValueError(
                f"unknown or non-disableable pass {name!r} (known: {known})"
            )
        # the int-valued flags (tp, pp) switch their pass off at 1
        flags[flag] = False if isinstance(getattr(options, flag), bool) else 1
    return dataclasses.replace(options, **flags)


class GraphCompiler:
    """Compiles a :class:`~repro.synapse.graph.Graph` to a :class:`Schedule`."""

    def __init__(
        self,
        config: GaudiConfig | None = None,
        options: CompilerOptions | None = None,
        *,
        cache: RecipeCache | None = None,
    ):
        self.options = options or CompilerOptions()
        #: the accelerator model compilation targets; ``config`` is
        #: coerced so legacy call sites passing a ``GaudiConfig`` can
        #: retarget with ``options.backend`` alone
        self.backend = get_backend(self.options.backend)
        self.config = self.backend.coerce_config(config)
        self.passes = default_passes()
        self.cache = cache if cache is not None else RecipeCache()
        #: whether the most recent :meth:`compile` hit the recipe cache
        self.last_cache_hit = False

    # -- public ------------------------------------------------------------

    @gc_paused()
    def compile(self, graph: Graph) -> Schedule:
        """Run the pass pipeline; raises on invalid graphs / OOM.

        With ``use_recipe_cache`` (the default) an identical
        graph/config/options triple returns the cached schedule without
        re-running the pipeline; ``last_cache_hit`` records which case
        this call was. An ``ht`` recorder compiles its recorded graph;
        anything else that is not a graph raises
        :class:`~repro.util.errors.GraphError`.
        """
        if not isinstance(graph, Graph):
            recorded = getattr(graph, "graph", None)
            if not isinstance(recorded, Graph):
                raise GraphError(
                    "GraphCompiler.compile expects a Graph or an ht "
                    f"recorder, got {type(graph).__name__}"
                )
            graph = recorded
        self.last_cache_hit = False
        options = self.options
        key = sigs = None
        if options.use_recipe_cache or options.incremental:
            # one walk: the graph signature keys the recipe cache, the
            # (structure, geometry) pair keys the pass cache
            all_sigs = signatures(graph)
            graph_sig, sigs = all_sigs[0], all_sigs[1:]
        if options.use_recipe_cache:
            key = recipe_key_from_signature(graph_sig, self.config, options)
            cached = self.cache.get(key)
            if cached is not None:
                self.last_cache_hit = True
                return cached
        schedule = PassManager(self.config, options, self.passes).run(
            graph, sigs
        )
        if key is not None:
            self.cache.put(key, schedule)
        return schedule
