"""Collective ops: fabric plans, gradient marking, injection, lint."""

import dataclasses
import json

import pytest

from repro import ht
from repro.ht import functional as F
from repro.hw.config import HLS1Config, InterconnectConfig
from repro.hw.costmodel import EngineKind
from repro.hw.dtypes import DType
from repro.hw.interconnect import (
    RingAllReduce,
    collective_plan,
    fabric_bandwidth,
)
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    graph_from_json,
    graph_signature,
    graph_to_json,
    lint_graph,
)
from repro.synapse.graph import Graph
from repro.util.errors import ConfigError, GraphError
from repro.util.units import s_to_us


def record_tiny_step(d: int = 8, layers: int = 2, batch: int = 4):
    """A tiny symbolic MLP training step with marked gradients."""
    lins = [ht.Linear(d, d, materialize=False) for _ in range(layers)]
    with ht.record("tiny-train", mode="symbolic") as rec:
        h = ht.input_tensor((batch, d), name="x")
        for lin in lins:
            h = F.relu(lin(h))
        loss = F.mean(h)
        loss.backward()
        params = [p for lin in lins for p in lin.parameters()]
        ht.SGD(params, lr=0.01).step()
    return rec.graph


class TestHLS1ConfigValidation:
    def test_zero_cards_rejected(self):
        with pytest.raises(ConfigError):
            HLS1Config(num_cards=0)

    @pytest.mark.parametrize("bad", [3, 5, 6, 7])
    def test_non_power_of_two_rejected(self, bad):
        with pytest.raises(ConfigError, match="power of two"):
            HLS1Config(num_cards=bad)

    @pytest.mark.parametrize("good", [1, 2, 4, 8])
    def test_powers_of_two_accepted(self, good):
        assert HLS1Config(num_cards=good).num_cards == good


class TestCollectivePlans:
    def setup_method(self):
        self.cfg = InterconnectConfig()

    def test_single_card_plan_is_empty(self):
        plan = collective_plan("all_reduce", 1, 1 << 20, self.cfg)
        assert plan.steps == ()
        assert plan.analytic_time_us == 0.0

    def test_all_reduce_plan_matches_analytic(self):
        payload = 4 << 20
        p = 4
        plan = collective_plan("all_reduce", p, payload, self.cfg)
        assert len(plan.steps) == 2 * (p - 1)
        assert all(s.wire_bytes == payload for s in plan.steps)
        assert plan.rate_cap == p * self.cfg.roce_bandwidth_bytes_per_s
        # replaying the steps alone (latency, then wire at the rate
        # cap) IS the plan's analytic time — exact equality, no
        # tolerance: analytic_time_us is defined as this step sum
        replay = sum(
            s.latency_us + s_to_us(s.wire_bytes / plan.rate_cap)
            for s in plan.steps
        )
        assert replay == plan.analytic_time_us
        assert plan.replay_time_us() == plan.analytic_time_us
        # the textbook closed form stays as a cross-check reference;
        # it differs from the step sum only by FP rounding order
        analytic = RingAllReduce(self.cfg).cost(p, payload).time_us
        assert replay == pytest.approx(analytic, rel=1e-12)

    @pytest.mark.parametrize(
        "op,p,payload",
        [
            ("all_reduce", 8, 4 << 20), ("all_reduce", 2, 17),
            ("all_gather", 4, 1 << 20), ("reduce_scatter", 8, 3 << 19),
            ("broadcast", 4, 1 << 10), ("all_reduce", 8, 3),
        ],
    )
    def test_replay_equals_analytic_exactly(self, op, p, payload):
        # satellite regression: every flat plan's analytic time equals
        # its replayed step sum bit-for-bit, sub-chunk floors included
        plan = collective_plan(op, p, payload, self.cfg)
        assert plan.replay_time_us() == plan.analytic_time_us

    def test_sub_chunk_payload_is_latency_only(self):
        # fewer payload bytes than cards: the ring cannot split the
        # buffer into p chunks, so the cost floors at the latency term
        cost = RingAllReduce(self.cfg).cost(8, 2)
        assert cost.time_us == pytest.approx(
            2 * 7 * self.cfg.roce_latency_us
        )
        plan = collective_plan("all_reduce", 8, 2, self.cfg)
        assert all(s.wire_bytes == 0.0 for s in plan.steps)
        # the latency-only floor is exact, not approximate
        assert plan.analytic_time_us == 2 * 7 * self.cfg.roce_latency_us

    def test_all_gather_plan(self):
        payload = 1 << 20
        plan = collective_plan("all_gather", 4, payload, self.cfg)
        assert len(plan.steps) == 3
        assert all(s.wire_bytes == 4 * payload for s in plan.steps)

    def test_reduce_scatter_plan_is_half_the_all_reduce(self):
        payload = 4 << 20
        rs = collective_plan("reduce_scatter", 4, payload, self.cfg)
        ar = collective_plan("all_reduce", 4, payload, self.cfg)
        assert len(rs.steps) * 2 == len(ar.steps)
        assert rs.steps == ar.steps[: len(rs.steps)]
        assert rs.rate_cap == ar.rate_cap

    def test_broadcast_plan(self):
        payload = 1 << 20
        plan = collective_plan("broadcast", 2, payload, self.cfg)
        assert len(plan.steps) == 1
        assert plan.steps[0].wire_bytes == payload
        assert plan.rate_cap == self.cfg.roce_bandwidth_bytes_per_s

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigError, match="unknown collective"):
            collective_plan("all_to_all", 4, 1024, self.cfg)

    def test_fabric_bandwidth_scales_with_cards(self):
        assert fabric_bandwidth(self.cfg, 4) == pytest.approx(
            4 * self.cfg.roce_bandwidth_bytes_per_s
        )
        with pytest.raises(ConfigError):
            fabric_bandwidth(self.cfg, 0)


class TestGradientMarking:
    def test_unknown_vid_rejected(self):
        g = Graph("g")
        with pytest.raises(GraphError, match="unknown value"):
            g.mark_gradient(999)

    def test_remarking_is_noop(self):
        g = Graph("g")
        v = g.add_value((4,), DType.FP32)
        g.mark_gradient(v.vid, "w")
        g.mark_gradient(v.vid, "w")
        assert len(g.gradients()) == 1

    def test_optimizer_marks_parameter_gradients(self):
        graph = record_tiny_step()
        names = {name for _, name in graph.gradients()}
        assert len(graph.gradients()) == 4  # 2 layers x (weight, bias)
        assert any("weight" in n for n in names)

    def test_serialize_roundtrip_preserves_marks(self):
        graph = record_tiny_step()
        restored = graph_from_json(graph_to_json(graph))
        assert len(restored.gradients()) == len(graph.gradients())
        assert (
            sorted(n for _, n in restored.gradients())
            == sorted(n for _, n in graph.gradients())
        )

    def test_marks_change_graph_signature(self):
        graph = record_tiny_step()
        payload = json.loads(graph_to_json(graph))
        assert payload.get("gradients")
        payload.pop("gradients")
        stripped = graph_from_json(json.dumps(payload))
        assert graph_signature(stripped) != graph_signature(graph)


def _compile(graph, **overrides):
    options = dataclasses.replace(
        CompilerOptions(), inject_collectives=True, **overrides
    )
    return GraphCompiler(options=options).compile(graph)


class TestCollectiveInjection:
    def test_off_by_default(self):
        graph = record_tiny_step()
        schedule = GraphCompiler().compile(graph)
        assert not [
            op for op in schedule.ops if op.engine is EngineKind.NIC
        ]

    def test_injects_nic_all_reduces(self):
        graph = record_tiny_step()
        schedule = _compile(graph)
        colls = [op for op in schedule.ops if op.engine is EngineKind.NIC]
        assert colls
        for op in colls:
            assert op.src == "all_reduce"
            assert op.reads
            assert all(d < op.index for d in op.deps)

    def test_optimizer_waits_for_reduced_gradients(self):
        graph = record_tiny_step()
        schedule = _compile(graph)
        colls = [op for op in schedule.ops if op.engine is EngineKind.NIC]
        for coll in colls:
            reduced = set(coll.reads)
            consumers = [
                op for op in schedule.ops
                if op.index > coll.index and reduced & set(op.reads)
            ]
            assert consumers, "every bucket has an optimizer reader"
            for op in consumers:
                assert coll.index in op.deps

    def test_no_overlap_is_one_bucket(self):
        graph = record_tiny_step()
        schedule = _compile(graph, comm_overlap=False)
        colls = [op for op in schedule.ops if op.engine is EngineKind.NIC]
        assert len(colls) == 1

    def test_smaller_buckets_mean_more_collectives(self):
        graph = record_tiny_step(d=32)
        coarse = _compile(graph, bucket_mb=100.0)
        fine = _compile(graph, bucket_mb=0.001)
        count = lambda s: sum(
            1 for op in s.ops if op.engine is EngineKind.NIC
        )
        assert count(fine) > count(coarse)

    def test_gradient_bytes_stat(self):
        graph = record_tiny_step()
        schedule = _compile(graph)
        assert schedule.stats["gradient_bytes"] > 0

    def test_bucket_size_keys_recipe_cache(self):
        graph = record_tiny_step()
        options = dataclasses.replace(
            CompilerOptions(), inject_collectives=True
        )
        compiler = GraphCompiler(options=options)
        compiler.compile(graph)
        assert not compiler.last_cache_hit
        compiler.compile(graph)
        assert compiler.last_cache_hit


class TestCollectiveLint:
    def _gather_graph(self, out_shape):
        g = Graph("coll")
        x = g.add_value((4,), DType.FP32, name="x", kind="input")
        out = g.add_value(out_shape, DType.FP32)
        g.add_node(
            "all_gather", [x.vid], out, attrs={"num_cards": 2}
        )
        return g

    def test_consistent_all_gather_is_clean(self):
        warnings = lint_graph(self._gather_graph((2, 4)))
        assert not [w for w in warnings if w.rule.startswith("collective")]

    def test_payload_mismatch_flagged(self):
        warnings = lint_graph(self._gather_graph((3, 4)))
        assert any(w.rule == "collective-payload" for w in warnings)
