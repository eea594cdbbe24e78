"""MemoryPlanningPass: liveness planning, recompute/spill, HBM budget.

Computes the peak HBM footprint by interval liveness over the emitted
schedule (shared with :mod:`repro.synapse.memtrace` through
:mod:`repro.synapse.liveness`): params and inputs are persistent,
activations free after their last consumer, fused-chain internals
never materialize.

With ``memory_policy="none"`` this is the historical validation pass:
schedules whose peak exceeds the budget (``hbm_budget``, defaulting to
the 32 GB capacity) are rejected at compile time when
``enforce_memory`` is set — reproducing why the paper's end-to-end
runs used batch 8 ("due to limited GAUDI memory", §3.4).

The other policies turn the pass into a *planner*. While the peak
exceeds the budget, it picks one value that is live across the peak
but not accessed there, and either

* **spills** it — paired DMA ops: ``spill_out`` right after the
  value's last access before the peak releases the HBM pages,
  ``spill_in`` just before the next consumer restores them. Both are
  unpipelined DMA transfers, so at runtime they drain through the
  shared-HBM :class:`~repro.hw.bandwidth.BandwidthArbiter` and contend
  with compute for bandwidth, while the dependency structure (the
  restore only waits on the offload) lets the lookahead scheduler
  start prefetches early and hide them; or
* **recomputes** it — for values inside a recorded checkpoint segment
  (:meth:`~repro.synapse.graph.Graph.mark_checkpoint`), the producing
  cone is cloned immediately before the next consumer and the original
  store is dropped after its last pre-peak use.

The choice is cost-model driven: each candidate is scored by the
cheaper of its two estimated time costs (two DMA transfers vs. the
uncontended duration of the recompute cone) per byte freed, and the
policy (``recompute`` / ``spill`` / ``auto``) restricts which methods
are eligible. One transform is applied per iteration and liveness is
recomputed, so later decisions see the updated footprint.
"""

from __future__ import annotations

from ...hw.costmodel import CostModel, EngineKind, OpClass, WorkItem
from ...util.errors import CompileError, DeviceMemoryError
from ...util.units import fmt_bytes
from ..liveness import LiveInterval, LivenessResult, compute_liveness
from ..schedule import MemoryPlan, ScheduledOp
from .base import CompilerPass
from .state import CompilationState

#: valid ``CompilerOptions.memory_policy`` values
MEMORY_POLICIES = ("none", "recompute", "spill", "auto")

#: planner iteration cap (one spill pair or recompute segment each)
_MAX_PLAN_STEPS = 1000

#: recompute-cone size cap: past this many re-emitted ops the segment
#: is treated as non-recomputable (spill, if allowed, still applies)
_MAX_CONE_OPS = 16


class MemoryPlanningPass(CompilerPass):
    """Plan the HBM footprint and enforce the capacity budget."""

    name = "memory_planning"
    option_flag = "plan_memory"

    def run(self, state: CompilationState) -> dict:
        """Fill ``state.memory``; plan, then raise if still over budget."""
        assert state.ops is not None, "emission must run before memory"
        graph = state.graph
        options = state.options
        policy = options.memory_policy
        if policy not in MEMORY_POLICIES:
            raise CompileError(
                f"unknown memory_policy {policy!r} "
                f"(choices: {', '.join(MEMORY_POLICIES)})"
            )
        budget = options.hbm_budget or state.backend.memory_capacity_bytes(
            state.config
        )

        live = compute_liveness(graph, state.ops)
        oracle_peak = live.peak_bytes
        n_spill = n_recompute = 0
        spill_bytes = recompute_bytes = 0
        if policy != "none" and live.peak_bytes > budget:
            cost = state.backend.cost_model(state.config)
            droppable = graph.checkpoint_droppable()
            for _ in range(_MAX_PLAN_STEPS):
                if live.peak_bytes <= budget:
                    break
                action = self._plan_step(state, live, policy, droppable, cost)
                if action is None:
                    break
                kind, nbytes = action
                if kind == "spill":
                    n_spill += 1
                    spill_bytes += nbytes
                else:
                    n_recompute += 1
                    recompute_bytes += nbytes
                live = compute_liveness(graph, state.ops)

        state.memory = MemoryPlan(
            persistent_bytes=live.persistent_bytes,
            peak_bytes=live.peak_bytes,
            free_after=dict(live.free_after),
        )
        state.stats["memory"] = {
            "policy": policy,
            "budget_bytes": budget,
            "oracle_peak_bytes": oracle_peak,
            "peak_bytes": live.peak_bytes,
            "spill_ops": n_spill,
            "spill_bytes": spill_bytes,
            "recompute_ops": n_recompute,
            "recompute_bytes": recompute_bytes,
        }
        if options.enforce_memory and live.peak_bytes > budget:
            raise DeviceMemoryError(
                live.peak_bytes,
                budget,
                detail=f"graph {graph.name!r} peak "
                       f"{fmt_bytes(live.peak_bytes)} "
                       f"(memory_policy {policy!r})",
            )
        return {
            "transforms": (
                n_spill + n_recompute
                if policy != "none"
                else len(live.free_after)
            ),
            "peak_bytes": live.peak_bytes,
            "persistent_bytes": live.persistent_bytes,
        }

    # -- planning ----------------------------------------------------------

    def _plan_step(
        self,
        state: CompilationState,
        live: LivenessResult,
        policy: str,
        droppable: set[int],
        cost: CostModel,
    ) -> tuple[str, int] | None:
        """Apply the best single transform at the current peak.

        Returns ``(kind, bytes_freed)`` or None when no candidate at
        the peak can be moved (the persistent set or the peak op's own
        operands are what overflow).
        """
        from ..runtime import op_duration_us

        ops = state.ops
        assert ops is not None
        graph = state.graph
        p = live.peak_index
        if p < 0:
            return None  # the persistent set alone overflows

        reads_pos: dict[int, list[int]] = {}
        first_writer: dict[int, ScheduledOp] = {}
        for pos, op in enumerate(ops):
            for vid in op.reads:
                reads_pos.setdefault(vid, []).append(pos)
            for vid in op.writes:
                first_writer.setdefault(vid, op)

        best: tuple[float, str, int, int, int, list[ScheduledOp] | None] | None = None
        for vid, spans in live.intervals.items():
            nbytes = graph.value(vid).nbytes
            if nbytes <= 0:
                continue
            for span in spans:
                if span.end is None or not span.covers(p):
                    continue
                gap = self._peak_gap(reads_pos, span, p)
                if gap is None:
                    continue
                e0, e1 = gap
                choices: list[tuple[float, str, list[ScheduledOp] | None]] = []
                if policy in ("spill", "auto"):
                    item = WorkItem(
                        f"spill:{vid}", OpClass.DATA_MOVE,
                        bytes_read=nbytes, pipelined=False,
                    )
                    spill_us = 2.0 * cost.time_us(
                        state.backend.dma_engine, item
                    )
                    choices.append((spill_us, "spill", None))
                if policy in ("recompute", "auto") and vid in droppable:
                    cone = self._recompute_cone(
                        graph, live, first_writer, vid, droppable, e1
                    )
                    if cone is not None:
                        rec_us = sum(op_duration_us(cost, c) for c in cone)
                        choices.append((rec_us, "recompute", cone))
                if not choices:
                    continue
                us, kind, cone = min(choices, key=lambda c: c[0])
                score = us / nbytes
                if best is None or score < best[0]:
                    best = (score, kind, vid, e0, e1, cone)

        if best is None:
            return None
        _, kind, vid, e0, e1, cone = best
        nbytes = graph.value(vid).nbytes
        if kind == "spill":
            self._apply_spill(
                ops, graph, vid, e0, e1, state.backend.dma_engine
            )
        else:
            assert cone is not None
            self._apply_recompute(ops, vid, cone, e1)
        return kind, nbytes

    @staticmethod
    def _peak_gap(
        reads_pos: dict[int, list[int]],
        span: LiveInterval,
        p: int,
    ) -> tuple[int, int] | None:
        """The access-free window of ``span`` around the peak.

        Returns ``(e0, e1)``: the last access at or before the peak and
        the next read after it; None when the value is touched at the
        peak itself or has no read on the far side.
        """
        assert span.end is not None
        events = [span.start] + [
            r for r in reads_pos.get(span.vid, ())
            if span.start <= r <= span.end
        ]
        if any(e == p for e in events):
            return None
        before = [e for e in events if e < p]
        after = [e for e in events if e > p]
        if not before or not after:
            return None
        return max(before), min(after)

    @staticmethod
    def _recompute_cone(
        graph,
        live: LivenessResult,
        first_writer: dict[int, ScheduledOp],
        vid: int,
        droppable: set[int],
        at: int,
    ) -> list[ScheduledOp] | None:
        """Compute ops to clone so ``vid`` re-materializes before ``at``.

        Every cone input must be live at the insertion point, a graph
        input, or itself droppable (then its producer joins the cone).
        None when the segment is not recomputable that way.
        """
        graph_inputs = {v.vid for v in graph.graph_inputs()}
        need = [vid]
        cone: list[ScheduledOp] = []
        seen: set[int] = set()
        while need:
            v = need.pop()
            op = first_writer.get(v)
            if op is None or not op.node_ids:
                return None  # no compute producer (input or DMA-born)
            if id(op) in seen:
                continue
            seen.add(id(op))
            cone.append(op)
            if len(cone) > _MAX_CONE_OPS:
                return None
            for r in op.reads:
                if r in graph_inputs or r in live.fused_internal:
                    continue
                spans = live.intervals.get(r, ())
                if any(
                    s.start < at and (s.end is None or s.end >= at)
                    for s in spans
                ):
                    continue  # still resident when the clone runs
                if r in droppable:
                    need.append(r)
                else:
                    return None
        return sorted(cone, key=lambda o: o.index)

    # -- schedule transforms -----------------------------------------------

    @staticmethod
    def _insert(ops: list[ScheduledOp], pos: int, new_op: ScheduledOp) -> None:
        """Insert ``new_op`` at ``pos``; renumber indices and deps."""
        assert all(d < pos for d in new_op.deps), "insertion breaks topology"
        # deps point backward: only ops from ``pos`` on can name ``pos``
        for op in ops[pos:]:
            op.deps = tuple([d + 1 if d >= pos else d for d in op.deps])
        ops.insert(pos, new_op)
        for i in range(pos, len(ops)):
            ops[i].index = i

    @classmethod
    def _apply_spill(
        cls,
        ops: list[ScheduledOp],
        graph,
        vid: int,
        e0: int,
        e1: int,
        dma_engine: EngineKind,
    ) -> None:
        """Offload ``vid`` after position ``e0``, restore before ``e1``."""
        value = graph.value(vid)
        out = ScheduledOp(
            index=0,
            label=f"spill_out:{value.name or vid}",
            engine=dma_engine,
            items=(WorkItem(
                f"spill_out:{vid}", OpClass.DATA_MOVE,
                bytes_read=value.nbytes, pipelined=False,
            ),),
            deps=(e0,),
            src="spill", scope=ops[e0].scope,
            reads=(vid,),
        )
        cls._insert(ops, e0 + 1, out)
        # every position >= e0 + 1 shifted by one: the consumer is at
        # e1 + 1 and the restore goes right before it
        restore = ScheduledOp(
            index=0,
            label=f"spill_in:{value.name or vid}",
            engine=dma_engine,
            items=(WorkItem(
                f"spill_in:{vid}", OpClass.DATA_MOVE,
                bytes_written=value.nbytes, pipelined=False,
            ),),
            deps=(out.index,),
            src="spill", scope=ops[e1 + 1].scope,
            writes=(vid,),
        )
        cls._insert(ops, e1 + 1, restore)
        for op in ops[restore.index + 1:]:
            if vid in op.reads and restore.index not in op.deps:
                op.deps = tuple(sorted({*op.deps, restore.index}))

    @classmethod
    def _apply_recompute(
        cls,
        ops: list[ScheduledOp],
        vid: int,
        cone: list[ScheduledOp],
        at: int,
    ) -> None:
        """Clone ``cone`` (producers first) immediately before ``at``."""
        pos = at
        for orig in cone:
            clone = orig.clone()
            clone.label = f"recompute:{orig.label}"
            clone.src = "recompute"
            deps = []
            for r in clone.reads:
                for i in range(pos - 1, -1, -1):
                    if r in ops[i].writes:
                        deps.append(i)
                        break
            clone.deps = tuple(sorted(set(deps)))
            cls._insert(ops, pos, clone)
            pos += 1
        rewritten = {
            w: at + off for off, orig in enumerate(cone) for w in orig.writes
        }
        for op in ops[pos:]:
            extra = {idx for w, idx in rewritten.items() if w in op.reads}
            if extra - set(op.deps):
                op.deps = tuple(sorted({*op.deps, *extra}))
