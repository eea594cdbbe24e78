"""Incremental recompilation: pass-result reuse that stays byte-identical.

The pass cache (``repro.synapse.passes.incremental``) replays
structural pass decisions across recipe-cache misses that change only
geometry (batch/seq) or downstream options. These tests pin the three
contracts: replayed compiles equal cold compiles exactly, reuse
actually happens where the design says it does (and not where it must
not), and the declaration-audit lint keeps future passes honest.
"""

import dataclasses
import json

import pytest

from repro import ht
from repro.ht import functional as F
from repro.synapse import CompilerOptions, GraphCompiler
from repro.synapse.lint import lint_passes
from repro.synapse.passes import (
    CompilerPass,
    PassResultCache,
    default_passes,
    incremental,
    pass_cache_stats,
    reset_pass_cache,
)
from repro.synapse.recipe import signatures
from repro.synapse.serialize import schedule_to_json


@pytest.fixture(autouse=True)
def _fresh_pass_cache():
    reset_pass_cache()
    yield
    reset_pass_cache()


def structure_signature(graph):
    return signatures(graph)[1]


def geometry_signature(graph):
    return signatures(graph)[2]


def record_step(batch, width=32, depth=3):
    lins = [ht.Linear(width, width, materialize=False) for _ in range(depth)]
    with ht.record("inc-step", mode="symbolic") as rec:
        h = ht.input_tensor((batch, width), name="x")
        for lin in lins:
            h = F.softmax(lin(h), axis=-1)
        loss = F.mean(h)
        loss.backward()
        params = [p for lin in lins for p in lin.parameters()]
        ht.SGD(params, lr=0.01).step()
    return rec.graph


def compile_graph(graph, *, incremental, **overrides):
    options = dataclasses.replace(
        CompilerOptions(),
        incremental=incremental,
        use_recipe_cache=False,
        inject_collectives=True,
        **overrides,
    )
    return GraphCompiler(options=options).compile(graph)


def canonical(schedule) -> dict:
    """Schedule content minus stats (stats carry wall-clock noise)."""
    blob = json.loads(schedule_to_json(schedule))
    blob.pop("stats", None)
    return blob


class TestComponentSignatures:
    def test_batch_change_preserves_structure(self):
        g4, g16 = record_step(4), record_step(16)
        assert structure_signature(g4) == structure_signature(g16)
        assert geometry_signature(g4) != geometry_signature(g16)

    def test_structure_change_detected(self):
        deep = record_step(4, depth=4)
        assert structure_signature(record_step(4)) != structure_signature(deep)

    def test_scalar_attr_geometry_is_in_geometry_sig(self):
        # mean_bwd's alpha = 1/numel is a *scalar* attr that changes
        # with batch — the signature split must classify it geometry
        g4, g8 = record_step(4), record_step(8)
        a4 = {n.op: n.attrs for n in g4.nodes if n.src == "mean_bwd"}
        a8 = {n.op: n.attrs for n in g8.nodes if n.src == "mean_bwd"}
        assert a4 != a8  # the premise: batch leaks into a scalar attr
        assert structure_signature(g4) == structure_signature(g8)


class TestIncrementalReuse:
    def test_batch_sweep_replays_structural_passes(self):
        compile_graph(record_step(4), incremental=True)
        warm = compile_graph(record_step(8), incremental=True)
        modes = {
            e["pass"]: e["incremental"]
            for e in warm.stats["passes"] if e["incremental"]
        }
        assert modes == {
            "validate": "hit",
            "lower_composites": "miss",  # rewritten shapes differ
            "view_elision": "hit",
            "elementwise_fusion": "hit",
            "recompile_injection": "hit",
            "dma_staging": "hit",
        }
        assert warm.stats["incremental"] == {"reused": 5, "recomputed": 1}

    def test_option_sweep_replays_everything_cacheable(self):
        graph = record_step(8)
        compile_graph(graph, incremental=True)
        warm = compile_graph(graph, incremental=True, bucket_mb=1.0)
        assert warm.stats["incremental"] == {"reused": 6, "recomputed": 0}

    def test_read_option_change_invalidates_its_pass(self):
        graph = record_step(8)
        compile_graph(graph, incremental=True)
        warm = compile_graph(graph, incremental=True, recompile_once=False)
        modes = {
            e["pass"]: e["incremental"]
            for e in warm.stats["passes"] if e["incremental"]
        }
        assert modes["recompile_injection"] == "miss"
        assert modes["elementwise_fusion"] == "hit"

    def test_upstream_ablation_invalidates_downstream(self):
        # fusion off changes the grouping; dma_staging results recorded
        # under the fused pipeline must not replay into the unfused one
        graph = record_step(8)
        fused = compile_graph(graph, incremental=True)
        unfused = compile_graph(
            graph, incremental=True, fuse_elementwise=False
        )
        modes = {
            e["pass"]: e["incremental"]
            for e in unfused.stats["passes"] if e["incremental"]
        }
        assert modes["dma_staging"] == "miss"
        reference = compile_graph(
            graph, incremental=False, fuse_elementwise=False
        )
        assert canonical(unfused) == canonical(reference)
        assert canonical(fused) != canonical(unfused)

    def test_incremental_off_never_touches_cache(self):
        compile_graph(record_step(4), incremental=False)
        stats = pass_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    @pytest.mark.parametrize("batch", [4, 8, 16])
    def test_replayed_compiles_byte_identical(self, batch):
        # warm the cache from a different sweep point first
        compile_graph(record_step(2), incremental=True)
        cold = compile_graph(record_step(batch), incremental=False)
        warm = compile_graph(record_step(batch), incremental=True)
        assert canonical(warm) == canonical(cold)


class TestGraphBound:
    """Entries that carry a lowered graph are bounded by their node
    count, not only by the entry count."""

    def test_filling_past_the_cap_evicts_lru_graphs(self):
        cache = PassResultCache()
        size = incremental.MAX_GRAPH_NODES // 3
        cache.put("small", ("payload", None))
        for i in range(3):
            cache.put(f"g{i}", ("graph", "sigs"), graph_nodes=size)
        assert cache.info()["graphs"] == 3
        assert cache.get("g0") is not None  # g1 is now the oldest graph
        cache.put("g3", ("graph", "sigs"), graph_nodes=size)
        info = cache.info()
        assert info["graphs"] == 3 and info["graph_nodes"] == 3 * size
        assert cache.get("g1") is None
        for key in ("small", "g0", "g2", "g3"):
            assert cache.get(key) is not None
        assert info["size"] == 4

    def test_the_newest_graph_stays(self):
        cache = PassResultCache()
        cache.put("g0", ("graph", "sigs"), graph_nodes=10)
        huge = incremental.MAX_GRAPH_NODES + 1
        cache.put("g1", ("graph", "sigs"), graph_nodes=huge)
        assert cache.get("g0") is None and cache.get("g1") is not None
        assert cache.info()["graph_nodes"] == huge

    def test_entry_bound_and_reput_keep_the_count(self):
        cache = PassResultCache(maxsize=2)
        cache.put("g0", ("graph", "sigs"), graph_nodes=10)
        cache.put("g0", ("graph", "sigs"), graph_nodes=12)
        assert cache.info()["graph_nodes"] == 12
        cache.put("a", ("payload", None))
        cache.put("b", ("payload", None))  # evicts g0 by entry count
        info = cache.info()
        assert (info["graphs"], info["graph_nodes"], info["size"]) == (0, 0, 2)
        cache.put("g1", ("graph", "sigs"), graph_nodes=5)
        cache.clear()
        info = cache.info()
        assert (info["graphs"], info["graph_nodes"], info["size"]) == (0, 0, 0)

    def test_compiles_report_lowered_graphs(self, monkeypatch):
        graphs = [record_step(batch) for batch in (2, 4, 8)]
        compile_graph(graphs[0], incremental=True)
        stats = pass_cache_stats()
        assert stats["graphs"] == 1 and stats["graph_nodes"] > 0
        # a cap below two graphs keeps only the newest; replays after
        # an eviction recompute and stay byte-identical
        monkeypatch.setattr(
            incremental, "MAX_GRAPH_NODES", stats["graph_nodes"]
        )
        for graph in graphs[1:] + graphs[:1]:
            warm = compile_graph(graph, incremental=True)
            assert pass_cache_stats()["graphs"] == 1
            cold = compile_graph(graph, incremental=False)
            assert canonical(warm) == canonical(cold)


class TestPassDeclarationLint:
    def test_default_pipeline_is_clean(self):
        assert lint_passes() == []

    def test_over_declared_geometry_flagged(self):
        class LazyPass(CompilerPass):
            name = "lazy"
            signature_deps = ("structure", "geometry")

            def run(self, state):
                return {"values": len(state.graph.nodes)}

        findings = lint_passes([LazyPass()])
        assert [w.rule for w in findings] == ["pass-geometry-over-declared"]

    def test_under_declared_geometry_flagged(self):
        class SneakyPass(CompilerPass):
            name = "sneaky"
            signature_deps = ("structure",)

            def run(self, state):
                return {"rows": state.graph.value(0).shape[0]}

        findings = lint_passes([SneakyPass()])
        assert [w.rule for w in findings] == ["pass-geometry-under-declared"]

    def test_default_passes_declare_known_split(self):
        structural = {
            "validate", "view_elision", "elementwise_fusion",
            "recompile_injection", "dma_staging",
        }
        for compiler_pass in default_passes():
            deps = compiler_pass.signature_deps
            if compiler_pass.name in structural:
                assert deps == ("structure",), compiler_pass.name
                assert compiler_pass.incremental
            else:
                assert "geometry" in deps, compiler_pass.name
