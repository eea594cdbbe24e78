"""Each (op, shape) pair is priced once: shared work items and their costs.

Fusion and emission hand out one shared :class:`WorkItem` per value
key (``repro.synapse.passes.items``), each item memoizes its prices
per calibration (``WorkItem.costs``), and emission replays its op
skeleton under the structure key. These tests pin what makes that
safe: a shared item equals a freshly derived one, every cache stays
within its bound, prices never leak between calibrations, and a warm
compile of an unseen sweep point is byte-identical to a cold one.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.e2e_llm import record_training_step
from repro.hw.backend import get_backend
from repro.hw.config import GaudiConfig, gaudi2_config
from repro.hw.costmodel import CostModel, EngineKind, OpClass, WorkItem
from repro.hw.device import GaudiDevice
from repro.hw.dtypes import DType
from repro.synapse import CompilerOptions, GraphCompiler
from repro.synapse import runtime as runtime_mod
from repro.synapse.graph import Graph
from repro.synapse.ops import work_item_for
from repro.synapse.passes import incremental, items, reset_pass_cache
from repro.synapse.passes.items import clear_item_cache, node_item
from repro.synapse.runtime import Runtime, op_cost_parts
from repro.synapse.serialize import schedule_to_json

GEOMETRIES = [(2, 64), (4, 128)]


def _clear_all() -> None:
    reset_pass_cache()
    clear_item_cache()


@pytest.fixture(autouse=True)
def _fresh_caches():
    _clear_all()
    yield
    _clear_all()


def _options(lowering: str = "naive", **overrides) -> CompilerOptions:
    return CompilerOptions(
        inject_collectives=True, attention_lowering=lowering,
        use_recipe_cache=False, **overrides,
    )


def _compile(model, batch, seq, lowering="naive", **overrides):
    graph = record_training_step(model, batch=batch, seq_len=seq).graph
    return GraphCompiler(options=_options(lowering, **overrides)).compile(
        graph
    )


def canonical(schedule) -> dict:
    """Schedule content minus stats (stats carry wall-clock noise)."""
    blob = json.loads(schedule_to_json(schedule))
    blob.pop("stats", None)
    return blob


def _fresh_item(graph: Graph, node) -> WorkItem:
    out = graph.value(node.output)
    return work_item_for(
        node.op, [graph.value(v).shape for v in node.inputs], out.shape,
        out.dtype, node.attrs, label=node.label(),
    )


class TestSharedItems:
    @pytest.mark.parametrize("model", ["gpt", "bert"])
    @pytest.mark.parametrize("lowering", ["naive", "flash"])
    def test_cached_item_equals_fresh(self, model, lowering):
        # both geometries compile first, so every lookup below can hit
        # an item another node (or graph) put there
        schedules = [
            _compile(model, batch, seq, lowering)
            for batch, seq in GEOMETRIES
        ]
        for schedule in schedules:
            graph = schedule.graph
            for node in graph.nodes:
                fresh = _fresh_item(graph, node)
                assert node_item(graph, node) == fresh
            node_of = {n.nid: n for n in graph.nodes}
            for op in schedule.ops:
                if not op.node_ids:
                    continue
                assert op.items == tuple(
                    _fresh_item(graph, node_of[nid]) for nid in op.node_ids
                ), op.label

    def test_equal_keys_share_one_item(self):
        # compute and DMA staging ops; collectives price their buckets
        first = _compile("gpt", 2, 64)
        second = _compile("gpt", 2, 64)
        shared = 0
        for a, b in zip(first.ops, second.ops):
            if a.node_ids or a.label.startswith("dma:"):
                assert all(x is y for x, y in zip(a.items, b.items)), a.label
                shared += 1
        assert shared > len(first.ops) // 2

    def test_unhashable_attrs_skip_the_cache(self):
        graph = Graph("unhashable")
        x = graph.add_value((4, 8), DType.BF16, kind="input")
        y = graph.add_value((4, 8), DType.BF16)
        node = graph.add_node("relu", [x.vid], y, attrs={"tag": [1, 2]})
        item = node_item(graph, node)
        assert item == _fresh_item(graph, node)
        assert len(items._ITEMS) == 0

    def test_dma_items_keyed_on_vid_and_bytes(self):
        schedule = _compile("gpt", 2, 64)
        dmas = [op for op in schedule.ops if op.label.startswith("dma:")]
        assert dmas
        graph = schedule.graph
        for op in dmas:
            (vid,) = op.reads
            assert op.items == (WorkItem(
                f"dma:{vid}", OpClass.DATA_MOVE,
                bytes_read=graph.value(vid).nbytes, pipelined=True,
            ),)


class TestBounds:
    def test_item_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(items, "MAX_ITEMS", 16)
        _compile("gpt", 2, 64)
        assert 0 < len(items._ITEMS) <= 16

    def test_structural_memo_bounded(self, monkeypatch):
        monkeypatch.setattr(incremental, "MAX_STRUCTURAL", 1)
        _compile("gpt", 2, 64)
        _compile("bert", 2, 64)
        assert len(incremental._STRUCTURAL) == 1

    def test_item_price_memo_bounded(self):
        item = WorkItem("x", OpClass.ELEMENTWISE, flops=1e6,
                        bytes_read=1 << 20, bytes_written=1 << 20)
        base = GaudiConfig()
        limit = 3 * runtime_mod._PRICES_PER_ITEM
        for step in range(3 * runtime_mod._PRICES_PER_ITEM):
            # a launch overhead per step: every calibration prices apart
            tpc = dataclasses.replace(base.tpc, launch_overhead_us=1.0 + step)
            cost = CostModel(dataclasses.replace(base, tpc=tpc))
            parts = runtime_mod._item_parts(cost, EngineKind.TPC, item)
            assert parts == cost.cost_parts(EngineKind.TPC, item)
            assert len(item.costs) <= limit


class TestCalibrations:
    def test_two_configs_price_apart(self):
        schedule = _compile("gpt", 2, 64)
        gaudi = Runtime(GaudiDevice(GaudiConfig())).execute(schedule)
        gaudi2 = Runtime(GaudiDevice(gaudi2_config())).execute(schedule)
        assert gaudi.total_time_us != gaudi2.total_time_us
        # each equals a cold execute whose items carry no prices yet
        _clear_all()
        for config, warm in ((gaudi2_config(), gaudi2),
                             (GaudiConfig(), gaudi)):
            cold = Runtime(GaudiDevice(config)).execute(
                _compile("gpt", 2, 64)
            )
            assert cold.timeline.events == warm.timeline.events
            assert cold.total_time_us == warm.total_time_us

    def test_items_hold_one_price_per_config(self):
        schedule = _compile("gpt", 2, 64)
        models = [CostModel(GaudiConfig()), CostModel(gaudi2_config())]
        for cost in models:
            for op in schedule.ops:
                op_cost_parts(cost, op)
        keys = {cost.price_key for cost in models}
        assert len(keys) == 2
        single = next(op for op in schedule.ops if len(op.items) == 1
                      and op.engine is EngineKind.MME)
        memo = single.items[0].costs
        assert {memo[i] for i in range(0, len(memo), 3)} == keys
        for cost in models:
            assert op_cost_parts(cost, single) == cost.cost_parts(
                single.engine, single.items[0]
            )

    def test_price_keys_differ_across_backends(self):
        gaudi = get_backend("gaudi")
        wse = get_backend("wse")
        keys = {
            gaudi.cost_model(GaudiConfig()).price_key,
            gaudi.cost_model(gaudi2_config()).price_key,
            wse.cost_model(wse.default_config()).price_key,
        }
        assert len(keys) == 3
        # equal calibrations share one (interned) key
        assert (CostModel(GaudiConfig()).price_key
                is CostModel(GaudiConfig()).price_key)


class TestWarmSweepPoint:
    @pytest.mark.parametrize("model", ["gpt", "bert"])
    @pytest.mark.parametrize("lowering", ["naive", "flash"])
    def test_unseen_point_matches_cold(self, model, lowering):
        # warm every structure (items, prices, pass results, skeletons),
        # so a key that confused two of them would replay the wrong one
        for other in ("gpt", "bert"):
            for other_lowering in ("naive", "flash"):
                Runtime().execute(_compile(other, 2, 64, other_lowering))
        warm = _compile(model, 4, 128, lowering)
        assert warm.stats["incremental"]["reused"] > 0
        _clear_all()
        cold = _compile(model, 4, 128, lowering)
        assert canonical(warm) == canonical(cold)
        for key in ("nodes", "scheduled_ops", "fused_chains",
                    "dma_transfers", "recompilations"):
            assert warm.stats[key] == cold.stats[key], key

    def test_emit_replays_its_skeleton(self):
        _compile("gpt", 2, 64)
        skeletons = len(incremental._STRUCTURAL)
        assert skeletons == 1
        _compile("gpt", 4, 128)
        assert len(incremental._STRUCTURAL) == skeletons

    def test_no_structural_memo_without_incremental(self):
        _compile("gpt", 2, 64, incremental=False)
        assert len(incremental._STRUCTURAL) == 0

    def test_dma_ablation_does_not_reuse_skeleton(self):
        staged = _compile("gpt", 2, 64)
        unstaged = _compile("gpt", 2, 64, insert_dma=False)
        _clear_all()
        cold = _compile("gpt", 2, 64, insert_dma=False)
        assert canonical(unstaged) == canonical(cold)
        assert canonical(staged) != canonical(unstaged)
