"""Integration tests: lowering -> compiler -> runtime -> trace."""

import pytest

from repro import ht
from repro.hw.config import GaudiConfig, HBMConfig
from repro.hw.costmodel import EngineKind
from repro.hw.device import GaudiDevice
from repro.hw.dtypes import DType
from repro.synapse import (
    CompilerOptions,
    Graph,
    GraphCompiler,
    Runtime,
    SynapseProfiler,
    ascii_timeline,
    gap_report,
    lower_graph,
    validate_no_engine_overlap,
)
from repro.synapse.ops import op as op_def
from repro.util.errors import CompileError, DeviceMemoryError, GraphError
from dataclasses import replace


def emit(g: Graph, op_name, input_vids, attrs=None, scope=""):
    """Append a node, inferring the output shape from the registry."""
    attrs = attrs or {}
    shapes = [g.value(v).shape for v in input_vids]
    out_shape = op_def(op_name).infer_shape(shapes, attrs)
    out = g.add_value(out_shape, g.value(input_vids[0]).dtype)
    g.add_node(op_name, input_vids, out, attrs=attrs, scope=scope)
    return out.vid


def attention_graph(batch=4, seq=256, dim=64) -> Graph:
    """matmul -> scale -> softmax -> matmul, the Fig 4 core pattern."""
    g = Graph("attn")
    q = g.add_value((batch, seq, dim), DType.BF16, name="q", kind="input")
    k = g.add_value((batch, seq, dim), DType.BF16, name="k", kind="input")
    v = g.add_value((batch, seq, dim), DType.BF16, name="v", kind="input")
    s = emit(g, "matmul", [q.vid, k.vid], {"transpose_b": True}, scope="attn")
    s = emit(g, "smul", [s], {"alpha": dim ** -0.5}, scope="attn")
    p = emit(g, "softmax", [s], {"axis": -1}, scope="attn")
    emit(g, "matmul", [p, v.vid], scope="attn")
    return g


class TestLowering:
    def test_softmax_lowered_to_primitives(self):
        g = attention_graph()
        lowered = lower_graph(g)
        ops = [n.op for n in lowered.nodes]
        assert "softmax" not in ops
        for prim in ("max", "sub", "exp", "sum", "div"):
            assert prim in ops
        # provenance preserved for attribution
        exp_nodes = [n for n in lowered.nodes if n.op == "exp"]
        assert all(n.src == "softmax" for n in exp_nodes)

    def test_lowering_preserves_shapes(self):
        g = attention_graph(batch=2, seq=16, dim=8)
        lowered = lower_graph(g)
        lowered.validate()
        final_old = g.value(g.nodes[-1].output)
        final_new = lowered.value(lowered.nodes[-1].output)
        assert final_old.shape == final_new.shape

    def test_log_softmax_lowering(self):
        g = Graph()
        x = g.add_value((4, 10), DType.BF16, kind="input")
        emit(g, "log_softmax", [x.vid], {"axis": -1})
        lowered = lower_graph(g)
        assert "log" in [n.op for n in lowered.nodes]

    def test_composite_without_lowering_rejected(self):
        g = attention_graph()
        compiler = GraphCompiler(options=CompilerOptions(lower_composites=False))
        with pytest.raises(CompileError, match="lowering is disabled"):
            compiler.compile(g)


class TestCompiler:
    def test_engine_assignment(self):
        schedule = GraphCompiler().compile(attention_graph())
        engines = {op.label.split(".")[-1].split("[")[0]: op.engine
                   for op in schedule.ops}
        assert schedule.engine_queue(EngineKind.MME)
        assert schedule.engine_queue(EngineKind.TPC)
        for op in schedule.ops:
            if "matmul" in op.label:
                assert op.engine is EngineKind.MME

    def test_deps_point_backwards(self):
        schedule = GraphCompiler().compile(attention_graph())
        for op in schedule.ops:
            assert all(d < op.index for d in op.deps)

    def test_dma_inserted_on_engine_crossings(self):
        schedule = GraphCompiler().compile(attention_graph())
        assert schedule.stats["dma_transfers"] >= 2  # MME->TPC and TPC->MME

    def test_dma_disabled(self):
        schedule = GraphCompiler(
            options=CompilerOptions(insert_dma=False)
        ).compile(attention_graph())
        assert schedule.stats["dma_transfers"] == 0
        assert not schedule.engine_queue(EngineKind.DMA)

    def test_fusion_merges_elementwise_chain(self):
        fused = GraphCompiler().compile(attention_graph())
        unfused = GraphCompiler(
            options=CompilerOptions(fuse_elementwise=False)
        ).compile(attention_graph())
        assert fused.stats["fused_chains"] >= 1
        assert len(fused) < len(unfused)

    def test_fusion_reduces_peak_memory(self):
        g = Graph("chain")
        x = g.add_value((1 << 20,), DType.BF16, kind="input")
        h = emit(g, "exp", [x.vid])
        h = emit(g, "smul", [h], {"alpha": 2.0})
        emit(g, "sadd", [h], {"alpha": 1.0})
        fused = GraphCompiler().compile(g)
        unfused = GraphCompiler(
            options=CompilerOptions(fuse_elementwise=False)
        ).compile(g)
        assert fused.memory.peak_bytes < unfused.memory.peak_bytes

    def test_glu_triggers_recompilation(self):
        g = Graph("glu")
        x = g.add_value((128, 64), DType.BF16, kind="input")
        emit(g, "glu", [x.vid])
        schedule = GraphCompiler().compile(g)
        assert schedule.stats["recompilations"] == 1
        host_ops = schedule.engine_queue(EngineKind.HOST)
        assert len(host_ops) == 1
        assert "recompile" in host_ops[0].label

    def test_recompile_once_default(self):
        g = Graph("glu2")
        x = g.add_value((128, 64), DType.BF16, kind="input")
        h = emit(g, "glu", [x.vid])
        emit(g, "glu", [h])  # 64 -> 32
        once = GraphCompiler().compile(g)
        every = GraphCompiler(
            options=CompilerOptions(recompile_once=False)
        ).compile(g)
        assert once.stats["recompilations"] == 1
        assert every.stats["recompilations"] == 2

    def test_memory_plan_counts_params_as_persistent(self):
        g = Graph()
        w = g.add_value((1024, 1024), DType.BF16, kind="param")
        x = g.add_value((8, 1024), DType.BF16, kind="input")
        emit(g, "matmul", [x.vid, w.vid])
        schedule = GraphCompiler().compile(g)
        assert schedule.memory.persistent_bytes >= w.nbytes + x.nbytes
        assert schedule.memory.peak_bytes >= schedule.memory.persistent_bytes

    def test_oom_rejected_at_compile_time(self):
        # A graph whose activations exceed a tiny HBM must be rejected —
        # the effect that forced the paper's e2e batch size down to 8.
        small_hbm = GaudiConfig(hbm=HBMConfig(capacity_bytes=1 << 20))
        g = Graph("big")
        x = g.add_value((4096, 4096), DType.BF16, kind="input")
        emit(g, "exp", [x.vid])
        with pytest.raises(DeviceMemoryError):
            GraphCompiler(small_hbm).compile(g)

    def test_oom_enforcement_can_be_disabled(self):
        small_hbm = GaudiConfig(hbm=HBMConfig(capacity_bytes=1 << 20))
        g = Graph("big")
        x = g.add_value((4096, 4096), DType.BF16, kind="input")
        emit(g, "exp", [x.vid])
        schedule = GraphCompiler(
            small_hbm, CompilerOptions(enforce_memory=False)
        ).compile(g)
        assert schedule.memory.peak_bytes > 1 << 20

    def test_compile_accepts_recorder(self):
        with ht.record("attn", mode="symbolic") as rec:
            q = ht.input_tensor((2, 64, 32), name="q")
            ht.functional.softmax(q @ q.transpose(-1, -2))
        from_recorder = GraphCompiler().compile(rec)
        from_graph = GraphCompiler().compile(rec.graph)
        assert [op.label for op in from_recorder.ops] == [
            op.label for op in from_graph.ops
        ]

    def test_compile_rejects_non_graph(self):
        with pytest.raises(GraphError, match="expects a Graph"):
            GraphCompiler().compile("not a graph")


class TestRuntime:
    def test_in_order_no_engine_overlap(self):
        schedule = GraphCompiler().compile(attention_graph())
        result = Runtime(GaudiDevice()).execute(schedule)
        validate_no_engine_overlap(result.timeline)

    def test_reorder_no_engine_overlap(self):
        schedule = GraphCompiler().compile(attention_graph())
        result = Runtime(GaudiDevice()).execute(schedule, scheduler="reorder")
        validate_no_engine_overlap(result.timeline)

    def test_dependencies_respected(self):
        schedule = GraphCompiler().compile(attention_graph())
        result = Runtime(GaudiDevice()).execute(schedule)
        events = {i: ev for i, ev in zip(result.issue_order,
                                         result.timeline.events)}
        for op in schedule.ops:
            for dep in op.deps:
                assert events[dep].end_us <= events[op.index].start_us + 1e-9

    def test_reorder_never_slower(self):
        schedule = GraphCompiler().compile(attention_graph())
        t_inorder = Runtime(GaudiDevice()).execute(schedule).total_time_us
        t_reorder = Runtime(GaudiDevice()).execute(
            schedule, scheduler="reorder"
        ).total_time_us
        assert t_reorder <= t_inorder * 1.001

    def test_back_to_back_executions_advance_clock(self):
        schedule = GraphCompiler().compile(attention_graph())
        runtime = Runtime(GaudiDevice())
        r1 = runtime.execute(schedule)
        r2 = runtime.execute(schedule)
        assert r2.start_offset_us >= r1.total_time_us - 1e-9
        assert r2.total_time_us == pytest.approx(r1.total_time_us, rel=0.01)


class TestProfilerAndRender:
    def test_profile_result_metrics(self):
        res = SynapseProfiler().profile(attention_graph())
        assert res.total_time_us > 0
        assert 0 < res.utilization(EngineKind.MME) < 1
        assert res.mme_idle_fraction == pytest.approx(
            1 - res.utilization(EngineKind.MME)
        )
        # The headline Fig-4 effect at small scale already: softmax
        # dominates TPC busy time.
        assert res.softmax_tpc_share > 0.5

    def test_summary_text(self):
        res = SynapseProfiler().profile(attention_graph())
        text = res.summary()
        assert "MME utilization" in text and "softmax" in text

    def test_ascii_timeline_lanes(self):
        res = SynapseProfiler().profile(attention_graph())
        art = ascii_timeline(res.timeline, width=60)
        assert "MME" in art and "TPC" in art and "legend" in art

    def test_gap_report(self):
        res = SynapseProfiler().profile(attention_graph())
        text = gap_report(res.timeline, EngineKind.MME, min_dur_us=0.1)
        assert "MME" in text

    def test_chrome_trace_export(self):
        import json

        res = SynapseProfiler().profile(attention_graph())
        data = json.loads(res.timeline.to_chrome_trace())
        assert data["traceEvents"]
        assert {e["tid"] for e in data["traceEvents"]} >= {"MME", "TPC"}
