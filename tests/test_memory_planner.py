"""The memory-planning subsystem: checkpoints, liveness, spill/recompute.

Covers the planning layer end to end:

* the ``ht.checkpoint`` frontend marker and its survival through
  lowering, TPC slicing, and serialization;
* the shared liveness module — planner and memtrace must compute the
  same footprint on paper-scale graphs;
* recipe-cache keying of every memory-relevant compile option (the
  cache-poisoning regression: a planned schedule must never be served
  for a different budget or policy);
* the planner itself — policy validation, spill pairing, recompute
  tiling, and the ISSUE acceptance case: the paper's GPT-2 step at
  batch 32 fits the 32 GiB budget under ``memory_policy="auto"``;
* hypothesis properties: any planned schedule keeps its peak at or
  under budget (or is rejected), reproduces the unplanned numerics
  byte for byte, and passes the schedule lint rules.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ht
from repro.core.e2e_llm import record_training_step
from repro.hw.config import GaudiConfig
from repro.hw.costmodel import EngineKind
from repro.models import TransformerLayer, paper_layer_config
from repro.models.config import AttentionConfig, LayerConfig
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    RecipeCache,
    Runtime,
    compute_liveness,
    execute_schedule,
    graph_from_json,
    graph_to_json,
    lint_schedule,
    memory_timeline,
    recipe_key,
)
from repro.util.errors import CompileError, DeviceMemoryError
from repro.util.units import GIB


def small_layer_config(include_ffn=False):
    return LayerConfig(
        attention=AttentionConfig(num_heads=2, head_dim=32, kind="softmax"),
        include_ffn=include_ffn,
    )


def record_checkpointed_layer(include_ffn=False, seed=7):
    """A concrete checkpointed layer fwd+bwd; returns (rec, inputs)."""
    cfg = small_layer_config(include_ffn)
    layer = TransformerLayer(cfg, materialize=True)
    rng = np.random.default_rng(seed)
    x_np = rng.normal(size=(2, 16, cfg.d_model)).astype(np.float32)
    with ht.record("ckpt-layer", mode="concrete") as rec:
        x = ht.tensor(x_np, name="x")
        y = ht.checkpoint(layer, x, label="layer")
        y.sum().backward()
    inputs = {"x": x_np}
    for p in layer.parameters():
        inputs[p.name] = p.data
    return rec, inputs


def activation_budget(schedule, fraction):
    """A budget keeping ``fraction`` of the activation headroom."""
    pers = schedule.memory.persistent_bytes
    peak = schedule.memory.peak_bytes
    return pers + int((peak - pers) * fraction)


ORACLE = CompilerOptions(use_recipe_cache=False, enforce_memory=False)


class TestCheckpointMarker:
    def test_checkpoint_records_segment(self):
        rec, _ = record_checkpointed_layer()
        segments = rec.graph.checkpoints()
        assert len(segments) == 1
        label, inputs, outputs, droppable = segments[0]
        assert label == "layer"
        assert inputs and outputs and droppable

    def test_droppable_excludes_boundaries(self):
        rec, _ = record_checkpointed_layer()
        _, inputs, outputs, _ = rec.graph.checkpoints()[0]
        droppable = rec.graph.checkpoint_droppable()
        assert droppable
        assert droppable.isdisjoint(inputs)
        assert droppable.isdisjoint(outputs)

    def test_no_recorder_is_a_plain_call(self):
        assert ht.checkpoint(lambda a, b: a + b, 2, 3) == 5

    def test_checkpoint_does_not_change_eager_values(self):
        cfg = small_layer_config()
        layer = TransformerLayer(cfg, materialize=True)
        x_np = np.ones((1, 4, cfg.d_model), dtype=np.float32)
        with ht.record("plain", mode="concrete"):
            plain = layer(ht.tensor(x_np, name="x")).numpy()
        with ht.record("marked", mode="concrete"):
            marked = ht.checkpoint(
                layer, ht.tensor(x_np, name="x")
            ).numpy()
        np.testing.assert_array_equal(plain, marked)

    def test_tags_survive_serialization(self):
        rec, _ = record_checkpointed_layer()
        restored = graph_from_json(graph_to_json(rec.graph))
        assert restored.checkpoints() == rec.graph.checkpoints()
        assert (restored.checkpoint_droppable()
                == rec.graph.checkpoint_droppable())

    def test_tags_survive_lowering_into_valid_vids(self):
        """After the full pipeline the droppable set must name real
        values of the *lowered* graph, and still be non-trivial."""
        rec, _ = record_checkpointed_layer()
        schedule = GraphCompiler(options=ORACLE).compile(rec.graph)
        lowered = schedule.graph
        droppable = lowered.checkpoint_droppable()
        assert droppable
        for vid in droppable:
            lowered.value(vid)  # raises if the vid does not exist

    def test_stack_checkpoint_flag_marks_every_layer(self):
        rec = record_training_step("gpt", batch=2, seq_len=64,
                                   checkpoint=True)
        labels = [seg[0] for seg in rec.graph.checkpoints()]
        assert len(labels) == 2  # E2E_SHAPES: two decoder layers
        assert labels[0] != labels[1]

    def test_unmarked_graph_has_nothing_droppable(self):
        rec = record_training_step("gpt", batch=2, seq_len=64)
        assert rec.graph.checkpoints() == []
        assert rec.graph.checkpoint_droppable() == set()


class TestSharedLiveness:
    """Planner and memtrace must agree on the footprint (the extracted
    liveness module is the single source of truth for both)."""

    def _assert_agree(self, schedule):
        live = compute_liveness(schedule.graph, schedule.ops)
        timeline = memory_timeline(schedule)
        assert live.peak_bytes == schedule.memory.peak_bytes
        assert timeline.peak_bytes == schedule.memory.peak_bytes
        assert live.persistent_bytes == schedule.memory.persistent_bytes

    def test_cross_check_paper_layer(self):
        layer_cfg = paper_layer_config("softmax")
        layer = TransformerLayer(layer_cfg, materialize=False)
        with ht.record("fig4-layer", mode="symbolic") as rec:
            layer(ht.input_tensor((8, 256, layer_cfg.d_model)))
        self._assert_agree(GraphCompiler(options=ORACLE).compile(rec.graph))

    def test_cross_check_gpt_training_step(self):
        graph = record_training_step("gpt", batch=2, seq_len=128).graph
        self._assert_agree(GraphCompiler(options=ORACLE).compile(graph))

    def test_cross_check_planned_schedule(self):
        """Liveness parity must also hold after the planner rewrites
        the op list (multi-write intervals, spill DMA ops)."""
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        planned = GraphCompiler(options=dataclasses.replace(
            ORACLE, memory_policy="auto",
            hbm_budget=activation_budget(oracle, 0.9),
        )).compile(rec.graph)
        assert planned.memory.peak_bytes < oracle.memory.peak_bytes
        self._assert_agree(planned)

    @pytest.mark.parametrize("policy", ["none", "auto"])
    def test_matches_reference_walk(self, policy):
        """The liveness walk equals the straightforward one it replaced
        (bytes re-read at every alloc and free, intervals from sorted
        read windows) on plain and planner-rewritten op lists."""
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        schedule = GraphCompiler(options=dataclasses.replace(
            ORACLE, memory_policy=policy,
            hbm_budget=activation_budget(oracle, 0.9),
        )).compile(rec.graph)
        live = compute_liveness(schedule.graph, schedule.ops)
        ref = _reference_liveness(schedule.graph, schedule.ops)
        assert (live.peak_bytes, live.peak_index, live.persistent_bytes) \
            == (ref["peak"], ref["peak_index"], ref["persistent"])
        assert live.free_after == ref["free_after"]
        assert live.live_at == ref["live_at"]
        assert live.allocs_at == ref["allocs_at"]
        assert live.frees_at == ref["frees_at"]
        assert {
            vid: [(s.start, s.end) for s in spans]
            for vid, spans in live.intervals.items()
        } == ref["intervals"]


def _reference_liveness(graph, ops):
    """Interval liveness as first written: a direct transcription of
    the rules in :mod:`repro.synapse.liveness`."""
    from repro.synapse.liveness import fused_internal_values

    persistent = sum(v.nbytes for v in graph.graph_inputs())
    inputs = {v.vid for v in graph.graph_inputs()}
    internal = fused_internal_values(graph, ops)
    writes_of, reads_of = {}, {}
    for pos, op in enumerate(ops):
        for vid in op.reads:
            reads_of.setdefault(vid, []).append(pos)
        for vid in op.writes:
            writes_of.setdefault(vid, []).append(pos)
    intervals, allocs_at, frees_at, free_after = {}, {}, {}, {}
    for vid, wpos in writes_of.items():
        if vid in inputs or vid in internal:
            continue
        rpos = sorted(reads_of.get(vid, []))
        spans = []
        for i, w in enumerate(wpos):
            nxt = wpos[i + 1] if i + 1 < len(wpos) else None
            window = [r for r in rpos if r >= w and (nxt is None or r < nxt)]
            if window:
                end = max(window)
            elif nxt is None:
                end = None
            else:
                end = w
            spans.append((w, end))
        intervals[vid] = spans
        for start, end in spans:
            allocs_at.setdefault(start, []).append(vid)
            if end is not None:
                frees_at.setdefault(end, []).append(vid)
        if spans[-1][1] is not None:
            free_after[vid] = spans[-1][1]
    live = peak = persistent
    peak_index = -1
    live_at = []
    for pos in range(len(ops)):
        for vid in allocs_at.get(pos, ()):
            live += graph.value(vid).nbytes
        if live > peak:
            peak, peak_index = live, pos
        live_at.append(live)
        for vid in frees_at.get(pos, ()):
            live -= graph.value(vid).nbytes
    return {
        "persistent": persistent, "peak": peak, "peak_index": peak_index,
        "live_at": live_at, "allocs_at": allocs_at, "frees_at": frees_at,
        "free_after": free_after, "intervals": intervals,
    }


class TestRecipeCacheKeying:
    """The cache-poisoning regression: every memory-relevant option and
    tag must key the recipe."""

    def test_budget_changes_key(self):
        graph = record_checkpointed_layer()[0].graph
        config = GaudiConfig()
        assert (recipe_key(graph, config, CompilerOptions())
                != recipe_key(graph, config,
                              CompilerOptions(hbm_budget=1 << 30)))

    def test_policy_changes_key(self):
        graph = record_checkpointed_layer()[0].graph
        config = GaudiConfig()
        assert (recipe_key(graph, config, CompilerOptions())
                != recipe_key(graph, config,
                              CompilerOptions(memory_policy="auto")))

    def test_checkpoint_tags_change_key(self):
        """The same computation with and without checkpoint markers
        must compile to different cache entries — the tags license
        graph rewrites."""
        plain = record_training_step("gpt", batch=2, seq_len=64).graph
        tagged = record_training_step("gpt", batch=2, seq_len=64,
                                      checkpoint=True).graph
        config = GaudiConfig()
        opts = CompilerOptions()
        assert (recipe_key(plain, config, opts)
                != recipe_key(tagged, config, opts))

    def test_memory_cache_never_serves_stale_plan(self):
        """Regression: compiling under a tight budget then recompiling
        unconstrained must not replay the planned (spilled) recipe."""
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        cache = RecipeCache()
        tight = dataclasses.replace(
            ORACLE, use_recipe_cache=True, memory_policy="auto",
            hbm_budget=activation_budget(oracle, 0.9),
        )
        loose = dataclasses.replace(ORACLE, use_recipe_cache=True)
        first = GraphCompiler(options=tight, cache=cache).compile(rec.graph)
        assert any(op.src in ("spill", "recompute") for op in first.ops)
        second = GraphCompiler(options=loose, cache=cache).compile(rec.graph)
        assert not any(
            op.src in ("spill", "recompute") for op in second.ops
        )
        assert second.memory.peak_bytes == oracle.memory.peak_bytes
        assert cache.hits == 0 and cache.misses == 2

    def test_disk_cache_never_serves_stale_plan(self, tmp_path):
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        tight = dataclasses.replace(
            ORACLE, use_recipe_cache=True, memory_policy="auto",
            hbm_budget=activation_budget(oracle, 0.9),
        )
        loose = dataclasses.replace(ORACLE, use_recipe_cache=True)
        GraphCompiler(
            options=tight, cache=RecipeCache(save_dir=tmp_path)
        ).compile(rec.graph)
        fresh = RecipeCache(save_dir=tmp_path)
        second = GraphCompiler(options=loose, cache=fresh).compile(rec.graph)
        assert fresh.disk_hits == 0
        assert second.memory.peak_bytes == oracle.memory.peak_bytes

    def test_planned_recipe_replays_from_cache(self):
        """Same budget + policy *should* hit, and the replayed recipe
        keeps the planner's rewrites."""
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        tight = dataclasses.replace(
            ORACLE, use_recipe_cache=True, memory_policy="auto",
            hbm_budget=activation_budget(oracle, 0.9),
        )
        compiler = GraphCompiler(options=tight)
        first = compiler.compile(rec.graph)
        second = compiler.compile(rec.graph)
        assert compiler.last_cache_hit is True
        assert ([op.label for op in second.ops]
                == [op.label for op in first.ops])
        assert second.memory.peak_bytes == first.memory.peak_bytes


class TestPlannerPolicies:
    def test_unknown_policy_rejected(self):
        rec, _ = record_checkpointed_layer()
        with pytest.raises(CompileError, match="memory_policy"):
            GraphCompiler(options=dataclasses.replace(
                ORACLE, memory_policy="page-to-ssd",
            )).compile(rec.graph)

    def test_policy_none_still_rejects_over_budget(self):
        """The pre-planning behaviour is preserved: policy 'none' +
        enforcement raises instead of planning."""
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        with pytest.raises(DeviceMemoryError, match="memory_policy"):
            GraphCompiler(options=dataclasses.replace(
                ORACLE, enforce_memory=True,
                hbm_budget=activation_budget(oracle, 0.9),
            )).compile(rec.graph)

    def test_spill_ops_are_paired_unpipelined_dma(self):
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        planned = GraphCompiler(options=dataclasses.replace(
            ORACLE, memory_policy="spill",
            hbm_budget=activation_budget(oracle, 0.9),
        )).compile(rec.graph)
        spills = [op for op in planned.ops if op.src == "spill"]
        assert spills
        outs = [op for op in spills if op.reads and not op.writes]
        ins = [op for op in spills if op.writes]
        assert len(outs) == len(ins) == planned.stats["memory"]["spill_ops"]
        for op in spills:
            assert op.engine is EngineKind.DMA
            assert all(not item.pipelined for item in op.items)
            assert not op.node_ids  # value-transparent: nothing replays

    def test_recompute_ops_replay_original_nodes(self):
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        planned = GraphCompiler(options=dataclasses.replace(
            ORACLE, memory_policy="recompute",
            hbm_budget=activation_budget(oracle, 0.9),
        )).compile(rec.graph)
        clones = [op for op in planned.ops if op.src == "recompute"]
        assert clones
        for clone in clones:
            assert clone.node_ids
            twins = [
                op for op in planned.ops
                if op is not clone and op.writes == clone.writes
            ]
            assert twins and all(
                t.node_ids == clone.node_ids for t in twins
            )

    def test_planner_reports_memory_stats(self):
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        budget = activation_budget(oracle, 0.9)
        planned = GraphCompiler(options=dataclasses.replace(
            ORACLE, memory_policy="auto", hbm_budget=budget,
        )).compile(rec.graph)
        stats = planned.stats["memory"]
        assert stats["policy"] == "auto"
        assert stats["budget_bytes"] == budget
        assert stats["oracle_peak_bytes"] == oracle.memory.peak_bytes
        assert stats["peak_bytes"] == planned.memory.peak_bytes
        assert stats["peak_bytes"] < stats["oracle_peak_bytes"]

    def test_planned_schedule_executes_on_the_runtime(self):
        """Spill DMA is a first-class runtime op: the planned schedule
        runs under contention and the DMA engine carries the spills."""
        rec, _ = record_checkpointed_layer()
        oracle = GraphCompiler(options=ORACLE).compile(rec.graph)
        planned = GraphCompiler(options=dataclasses.replace(
            ORACLE, memory_policy="spill",
            hbm_budget=activation_budget(oracle, 0.9),
        )).compile(rec.graph)
        result = Runtime().execute(planned, scheduler="lookahead")
        spill_events = [
            e for e in result.timeline.events if e.src == "spill"
        ]
        assert spill_events
        assert all(e.engine is EngineKind.DMA for e in spill_events)
        assert all(e.dur_us > 0 for e in spill_events)


class TestAcceptanceGptBatch32:
    """The ISSUE criterion: the paper's GPT-2 config compiles and runs
    at batch 32 under the 32 GiB budget with ``memory_policy='auto'``."""

    def test_gpt_batch32_plans_under_capacity(self):
        graph = record_training_step("gpt", batch=32, checkpoint=True).graph
        with pytest.raises(DeviceMemoryError):
            GraphCompiler(options=CompilerOptions(
                use_recipe_cache=False,
            )).compile(graph)
        planned = GraphCompiler(options=CompilerOptions(
            use_recipe_cache=False, memory_policy="auto",
        )).compile(graph)
        assert planned.memory.peak_bytes <= 32 * GIB
        stats = planned.stats["memory"]
        assert stats["spill_ops"] > 0 and stats["recompute_ops"] > 0
        assert lint_schedule(planned) == []
        result = Runtime().execute(planned, scheduler="lookahead")
        assert result.total_time_us > 0


BUDGET_FRACTIONS = st.floats(min_value=0.3, max_value=0.98)


class TestPlannedScheduleProperties:
    """Hypothesis: for any budget fraction and policy, the planner
    either fits the budget or rejects; numerics never change; the
    schedule lint rules never fire."""

    @classmethod
    def setup_class(cls):
        cls.rec, cls.inputs = record_checkpointed_layer(include_ffn=True)
        cls.oracle = GraphCompiler(options=ORACLE).compile(cls.rec.graph)
        cls.env_oracle = execute_schedule(cls.oracle, cls.inputs)

    def _plan(self, policy, fraction):
        return GraphCompiler(options=dataclasses.replace(
            ORACLE, memory_policy=policy,
            hbm_budget=activation_budget(self.oracle, fraction),
        )).compile(self.rec.graph)

    @given(policy=st.sampled_from(("recompute", "spill", "auto")),
           fraction=BUDGET_FRACTIONS)
    @settings(max_examples=12, deadline=None)
    def test_peak_within_budget_or_rejected(self, policy, fraction):
        budget = activation_budget(self.oracle, fraction)
        try:
            planned = GraphCompiler(options=dataclasses.replace(
                ORACLE, enforce_memory=True, memory_policy=policy,
                hbm_budget=budget,
            )).compile(self.rec.graph)
        except DeviceMemoryError:
            return  # an honest rejection is a valid outcome
        assert planned.memory.peak_bytes <= budget

    @given(policy=st.sampled_from(("recompute", "spill", "auto")),
           fraction=BUDGET_FRACTIONS)
    @settings(max_examples=8, deadline=None)
    def test_numerics_byte_identical(self, policy, fraction):
        planned = self._plan(policy, fraction)
        env = execute_schedule(planned, self.inputs)
        for vid, ref in self.env_oracle.items():
            if vid in env:
                assert np.array_equal(env[vid], ref)

    @given(policy=st.sampled_from(("recompute", "spill", "auto")),
           fraction=BUDGET_FRACTIONS)
    @settings(max_examples=8, deadline=None)
    def test_schedule_lint_clean(self, policy, fraction):
        planned = self._plan(policy, fraction)
        assert lint_schedule(planned) == []

    @given(fraction=BUDGET_FRACTIONS)
    @settings(max_examples=8, deadline=None)
    def test_memtrace_matches_planner(self, fraction):
        planned = self._plan("auto", fraction)
        assert (memory_timeline(planned).peak_bytes
                == planned.memory.peak_bytes)
