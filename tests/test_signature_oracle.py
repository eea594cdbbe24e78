"""One signature walk: ``signatures()`` against the three-walk oracle.

The reference functions below are the three separate walks the recipe
and pass caches were keyed by before they were folded into
:func:`repro.synapse.recipe.signatures`, kept verbatim: every digest
must stay byte-identical, or recipe keys and on-disk recipes move.

The second half pins what the single walk must not break: a warm
compile hashes its input once and takes the replayed lowered graph's
signatures from the pass-cache entry, and those must equal a fresh
walk; a graph that can still change is never memoized.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.e2e_llm import record_forward_step, record_training_step
from repro.hw.config import GaudiConfig
from repro.hw.dtypes import DType
from repro.synapse import CompilerOptions, GraphCompiler
from repro.synapse import compiler as compiler_mod
from repro.synapse.graph import Graph
from repro.synapse.passes import base as base_mod
from repro.synapse.passes import reset_pass_cache
from repro.synapse.recipe import RecipeCache, recipe_key, signatures


# -- the reference walks (verbatim) -------------------------------------------


def graph_signature(graph: Graph) -> str:
    """Canonical content hash of a graph (structure, shapes, dtypes).

    Two graphs built by identical frontend programs — e.g. the same
    training step re-recorded every iteration — produce the same
    signature; any change to an op kind, shape, dtype, attribute,
    value kind, or provenance changes it.
    """
    h = hashlib.sha256()
    h.update(f"graph:{graph.name}\n".encode())
    for vid, v in sorted(graph.values.items()):
        h.update(
            f"v:{vid}:{v.shape}:{v.dtype.value}:{v.kind}:{v.name}\n".encode()
        )
    for n in graph.nodes:
        attrs = repr(sorted(n.attrs.items()))
        h.update(
            f"n:{n.nid}:{n.op}:{n.inputs}:{n.output}:{attrs}:"
            f"{n.src}:{n.scope}\n".encode()
        )
    if graph.metadata:
        # Gradient markings (and any future annotations) feed compiler
        # passes — collective_injection buckets by them — so they are
        # part of what compilation reads.
        h.update(f"m:{sorted(graph.metadata.items())!r}\n".encode())
    return h.hexdigest()


def structure_signature(graph: Graph) -> str:
    """Hash of everything about a graph *except* its geometry.

    Op kinds, connectivity, dtypes, value kinds/names, provenance, and
    gradient markings — the inputs the structural compiler passes
    (validation, view elision, fusion grouping, recompile marking, DMA
    staging) actually read for their decisions. Two sweep points of
    the same model that differ only in batch/sequence sizes share a
    structure signature, which is what lets the incremental pass cache
    replay those passes' decisions instead of re-deriving them (see
    :mod:`repro.synapse.passes.incremental`).

    Node attributes are deliberately *geometry*: they routinely embed
    concrete extents — reshape/broadcast targets, slice windows, and
    derived scalars like ``mean_bwd``'s ``alpha = 1/numel`` — so any
    attribute-reading pass must declare geometry dependence (the
    ``lint_passes`` rule polices this).
    """
    h = hashlib.sha256()
    h.update(f"structure:{graph.name}\n".encode())
    for vid, v in sorted(graph.values.items()):
        h.update(f"v:{vid}:{v.dtype.value}:{v.kind}:{v.name}\n".encode())
    for n in graph.nodes:
        h.update(
            f"n:{n.nid}:{n.op}:{n.inputs}:{n.output}:"
            f"{n.src}:{n.scope}\n".encode()
        )
    if graph.metadata:
        h.update(f"m:{sorted(graph.metadata.items())!r}\n".encode())
    return h.hexdigest()


def geometry_signature(graph: Graph) -> str:
    """Hash of a graph's geometry: value shapes + node attributes.

    The complement of :func:`structure_signature` — together they
    cover everything :func:`graph_signature` covers. Passes whose
    decisions depend on concrete extents (lowering's rewritten shapes,
    TPC slicing, memory planning) declare this component and re-run
    whenever it changes.
    """
    h = hashlib.sha256()
    h.update(b"geometry\n")
    for vid, v in sorted(graph.values.items()):
        h.update(f"v:{vid}:{v.shape}\n".encode())
    for n in graph.nodes:
        attrs = repr(sorted(n.attrs.items()))
        h.update(f"n:{n.nid}:{attrs}\n".encode())
    return h.hexdigest()


def reference(graph: Graph) -> tuple[str, str, str]:
    return (
        graph_signature(graph),
        structure_signature(graph),
        geometry_signature(graph),
    )


# -- helpers ------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _fresh_pass_cache():
    reset_pass_cache()
    yield
    reset_pass_cache()


@pytest.fixture
def walked(monkeypatch):
    """Every graph the compiler and pass manager hash, in call order."""
    seen: list[Graph] = []

    def spy(graph):
        seen.append(graph)
        return signatures(graph)

    monkeypatch.setattr(compiler_mod, "signatures", spy)
    monkeypatch.setattr(base_mod, "signatures", spy)
    return seen


@pytest.fixture
def keyed_sigs(monkeypatch):
    """``(pass name, component signatures)`` of every pass-cache key."""
    used: list[tuple[str, dict]] = []
    real = base_mod.pass_cache_key

    def spy(compiler_pass, component_sigs, option_values, prefix):
        used.append((compiler_pass.name, dict(component_sigs)))
        return real(compiler_pass, component_sigs, option_values, prefix)

    monkeypatch.setattr(base_mod, "pass_cache_key", spy)
    return used


def _compile(graph, **overrides):
    options = dataclasses.replace(CompilerOptions(), **overrides)
    return GraphCompiler(options=options, cache=RecipeCache()).compile(graph)


def _pass_stat(schedule, name: str) -> dict:
    (entry,) = [p for p in schedule.stats["passes"] if p["pass"] == name]
    return entry


def _pass_mode(schedule, name: str) -> str:
    return _pass_stat(schedule, name)["incremental"]


# -- oracle equality ----------------------------------------------------------


class TestOracle:
    @pytest.mark.parametrize("model", ["gpt", "bert"])
    @pytest.mark.parametrize("seq", [256, 2048])
    def test_training_step_graphs(self, model, seq):
        graph = record_training_step(model, batch=8, seq_len=seq).graph
        assert signatures(graph) == reference(graph)

    @pytest.mark.parametrize("step, overrides, rewrites", [
        # input + the lowered graph the lower_composites entry owns
        (record_training_step, {}, ("lower_composites",)),
        # flash fuses every cone, leaving no composite to lower
        (record_forward_step, {"attention_lowering": "flash"},
         ("attention_lowering",)),
        (record_training_step, {"attention_lowering": "fused"},
         ("attention_lowering", "lower_composites")),
        (record_training_step, {"tpc_slice_ops": True,
                                "tpc_slice_min_us": 0.0},
         ("tpc_slicing", "lower_composites")),
    ], ids=["lowered", "flash", "fused", "sliced"])
    def test_every_graph_a_compile_walks(self, walked, step, overrides,
                                         rewrites):
        graph = step("gpt", batch=4, seq_len=256).graph
        schedule = _compile(graph, **overrides)
        for name in rewrites:
            assert _pass_stat(schedule, name)["transforms"] > 0
        # one walk of the input and one of each graph a pass rewrote
        assert len(walked) == 1 + len(rewrites)
        assert walked[0] is graph
        assert walked[-1] is schedule.graph
        assert len({id(g) for g in walked}) == len(walked)
        for g in walked:
            assert signatures(g) == reference(g)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_graph(self, data):
        graph = Graph(data.draw(st.text(max_size=6), label="name"))
        names = st.text(alphabet="abcxyz_.é", max_size=5)
        n_values = data.draw(st.integers(1, 6), label="values")
        for _ in range(n_values):
            graph.add_value(
                tuple(data.draw(st.lists(st.integers(0, 3000), max_size=4))),
                data.draw(st.sampled_from(list(DType))),
                name=data.draw(names),
                kind=data.draw(st.sampled_from(
                    ["activation", "input", "param", "const"]
                )),
            )
        attr_values = st.one_of(
            st.integers(-5, 5000), st.floats(allow_nan=False),
            st.text(max_size=4), st.tuples(st.integers(0, 64)),
            st.booleans(), st.none(),
        )
        for out in data.draw(st.lists(
            st.integers(0, n_values - 1), unique=True, max_size=n_values,
        ), label="outputs"):
            inputs = data.draw(st.lists(
                st.integers(0, n_values - 1), max_size=3,
            ))
            graph.add_node(
                data.draw(st.sampled_from(["matmul", "add", "softmax", "x"])),
                inputs, graph.value(out),
                attrs=data.draw(st.dictionaries(
                    st.sampled_from(["axis", "shape", "alpha", "k"]),
                    attr_values, max_size=3,
                )),
                src=data.draw(names), scope=data.draw(names),
            )
        if data.draw(st.booleans(), label="marked"):
            graph.mark_gradient(0, data.draw(names))
        assert signatures(graph) == reference(graph)


# -- one walk per compile, no stale signatures --------------------------------


class TestWalks:
    def test_cold_compile_walks_input_and_lowered_graph(self, walked):
        graph = record_training_step("gpt", batch=4, seq_len=256).graph
        schedule = _compile(graph)
        assert walked == [graph, schedule.graph]

    def test_warm_compile_walks_once(self, walked):
        _compile(record_training_step("gpt", batch=4, seq_len=256).graph)
        walked.clear()
        graph = record_training_step("gpt", batch=4, seq_len=256).graph
        schedule = _compile(graph)
        assert _pass_mode(schedule, "lower_composites") == "hit"
        assert walked == [graph]

    def test_no_caches_walk_zero_times(self, walked):
        graph = record_training_step("gpt", batch=4, seq_len=256).graph
        _compile(graph, use_recipe_cache=False, incremental=False)
        assert walked == []

    def test_replayed_lowered_graph_signatures_are_fresh(self, keyed_sigs):
        _compile(record_training_step("gpt", batch=4, seq_len=256).graph)
        keyed_sigs.clear()
        schedule = _compile(
            record_training_step("gpt", batch=4, seq_len=256).graph
        )
        assert _pass_mode(schedule, "lower_composites") == "hit"
        lowered = schedule.graph
        fresh = {
            "structure": structure_signature(lowered),
            "geometry": geometry_signature(lowered),
        }
        after = [
            sigs for name, sigs in keyed_sigs
            if name in ("view_elision", "elementwise_fusion",
                        "recompile_injection", "dma_staging")
        ]
        assert len(after) == 4
        assert all(sigs == fresh for sigs in after)

    def test_mutated_input_graph_gets_new_recipe_key(self):
        graph = record_training_step("gpt", batch=4, seq_len=256).graph
        compiler = GraphCompiler(cache=RecipeCache())
        config, options = compiler.config, compiler.options
        before = recipe_key(graph, config, options)
        compiler.compile(graph)
        graph.nodes[-1].scope += ".moved"
        after = recipe_key(graph, config, options)
        assert after != before
        compiler.compile(graph)
        assert not compiler.last_cache_hit
        assert len(compiler.cache) == 2

    def test_recipe_key_matches_compiler_key(self):
        graph = record_training_step("gpt", batch=4, seq_len=256).graph
        cache = RecipeCache()
        compiler = GraphCompiler(GaudiConfig(), cache=cache)
        compiler.compile(graph)
        assert recipe_key(graph, compiler.config, compiler.options) in cache
