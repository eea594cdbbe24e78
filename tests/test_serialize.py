"""Round-trip tests for graph serialization."""

import numpy as np
import pytest

from repro import ht
from repro.ht import functional as F
from repro.models import TransformerLayer, paper_layer_config
from repro.synapse import (
    GraphCompiler,
    SynapseProfiler,
    execute_outputs,
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
)
from repro.util.errors import GraphError


def record_program():
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.normal(size=(4, 6)).astype(np.float32),
        "b": rng.normal(size=(6, 5)).astype(np.float32),
    }
    with ht.record("serialize-me", mode="concrete") as rec:
        a = ht.tensor(arrays["a"], name="a")
        b = ht.tensor(arrays["b"], name="b")
        out = F.softmax(F.mul_scalar(F.matmul(a, b), 0.5))
        eager = out.numpy()
    return rec.graph, arrays, eager


class TestRoundTrip:
    def test_structure_preserved(self):
        graph, _, _ = record_program()
        restored = graph_from_json(graph_to_json(graph))
        assert restored.name == graph.name
        assert len(restored) == len(graph)
        assert [n.op for n in restored.nodes] == [n.op for n in graph.nodes]
        for orig, new in zip(graph.nodes, restored.nodes):
            assert orig.attrs == new.attrs
            assert orig.src == new.src and orig.scope == new.scope

    def test_functional_equivalence(self):
        graph, arrays, eager = record_program()
        restored = graph_from_json(graph_to_json(graph))
        outs = execute_outputs(restored, arrays)
        np.testing.assert_allclose(list(outs.values())[0], eager, rtol=1e-5)

    def test_compile_equivalence(self):
        graph, _, _ = record_program()
        restored = graph_from_json(graph_to_json(graph))
        s1 = GraphCompiler().compile(graph)
        s2 = GraphCompiler().compile(restored)
        assert len(s1) == len(s2)
        assert [op.engine for op in s1.ops] == [op.engine for op in s2.ops]
        assert s1.memory.peak_bytes == s2.memory.peak_bytes

    def test_tuple_attrs_survive(self):
        with ht.record("t", mode="symbolic") as rec:
            x = ht.input_tensor((2, 3, 4), name="x")
            F.transpose(x, (0, 2, 1))
        restored = graph_from_json(graph_to_json(rec.graph))
        assert restored.nodes[0].attrs["axes"] == (0, 2, 1)

    def test_paper_scale_graph_round_trips(self):
        cfg = paper_layer_config("softmax")
        layer = TransformerLayer(cfg, materialize=False)
        with ht.record("fig4", mode="symbolic") as rec:
            layer(ht.input_tensor((128, 2048, cfg.d_model), name="x"))
        restored = graph_from_json(graph_to_json(rec.graph))
        t1 = SynapseProfiler().profile(rec.graph).total_time_us
        t2 = SynapseProfiler().profile(restored).total_time_us
        assert t1 == pytest.approx(t2, rel=1e-9)

    def test_file_io(self, tmp_path):
        graph, arrays, eager = record_program()
        path = save_graph(graph, tmp_path / "g.json")
        restored = load_graph(path)
        outs = execute_outputs(restored, arrays)
        np.testing.assert_allclose(list(outs.values())[0], eager, rtol=1e-5)


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(GraphError, match="not valid JSON"):
            graph_from_json("{nope")

    def test_wrong_format(self):
        with pytest.raises(GraphError, match="not a serialized"):
            graph_from_json('{"format": "pickle"}')

    def test_wrong_version(self):
        with pytest.raises(GraphError, match="version"):
            graph_from_json(
                '{"format": "repro-graph", "version": 999, '
                '"values": [], "nodes": []}'
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="cannot read"):
            load_graph(tmp_path / "nope.json")


class TestScheduleRoundTrip:
    """Compiled schedules (the on-disk recipe format) round-trip."""

    def _schedule(self, options=None):
        graph, arrays, eager = record_program()
        compiler = GraphCompiler(options=options) if options else \
            GraphCompiler()
        return compiler.compile(graph), arrays, eager

    def test_ops_and_memory_preserved(self):
        from repro.synapse import schedule_from_json, schedule_to_json

        schedule, _, _ = self._schedule()
        back = schedule_from_json(schedule_to_json(schedule))
        assert len(back.ops) == len(schedule.ops)
        for a, b in zip(schedule.ops, back.ops):
            assert (a.index, a.label, a.engine, a.deps) == (
                b.index, b.label, b.engine, b.deps)
            assert len(a.items) == len(b.items)
        assert back.memory.persistent_bytes == \
            schedule.memory.persistent_bytes
        assert back.memory.peak_bytes == schedule.memory.peak_bytes
        assert back.stats["passes"] == schedule.stats["passes"]

    def test_restored_schedule_executes_identically(self):
        from repro.hw.device import GaudiDevice
        from repro.synapse import (
            Runtime,
            execute_schedule,
            schedule_from_json,
            schedule_to_json,
        )

        schedule, arrays, eager = self._schedule()
        back = schedule_from_json(schedule_to_json(schedule))
        env = execute_schedule(back, arrays)
        out = env[back.graph.nodes[-1].output]
        np.testing.assert_array_equal(out, eager)
        a = Runtime(GaudiDevice()).execute(schedule, scheduler="reorder")
        b = Runtime(GaudiDevice()).execute(back, scheduler="reorder")
        assert a.total_time_us == b.total_time_us

    def test_sliced_schedule_round_trips(self):
        from repro.synapse import (
            CompilerOptions,
            execute_schedule,
            schedule_from_json,
            schedule_to_json,
        )

        schedule, arrays, eager = self._schedule(
            CompilerOptions(tpc_slice_ops=True, tpc_slice_min_us=0.0)
        )
        back = schedule_from_json(schedule_to_json(schedule))
        ops = [n.op for n in back.graph.nodes]
        assert ops == [n.op for n in schedule.graph.nodes]
        env = execute_schedule(back, arrays)
        out = env[back.graph.nodes[-1].output]
        np.testing.assert_array_equal(out, eager)

    def test_malformed_recipe_raises(self):
        from repro.synapse import schedule_from_json, schedule_to_json

        with pytest.raises(GraphError, match="not valid JSON"):
            schedule_from_json("{nope")
        with pytest.raises(GraphError, match="not a serialized"):
            schedule_from_json('{"format": "repro-graph"}')
        with pytest.raises(GraphError, match="version"):
            schedule_from_json(
                '{"format": "repro-recipe", "version": 999}'
            )
        schedule, _, _ = self._schedule()
        import json

        payload = json.loads(schedule_to_json(schedule))
        del payload["ops"][0]["engine"]
        with pytest.raises(GraphError, match="malformed recipe"):
            schedule_from_json(json.dumps(payload))
