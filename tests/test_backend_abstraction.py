"""The backend seam: registry, cache keying, lint, and invariants.

The backend abstraction promises two things at once: ``backend="wse"``
retargets the whole compile/execute stack at a different accelerator
model, and ``backend="gaudi"`` (the default) changes nothing at all.
These tests pin both sides:

* the registry contract (lookup, duplicate rejection, config
  coercion, role engines);
* cache-poisoning regression — the same graph compiled under
  ``gaudi`` then ``wse`` must never replay the other's schedule, in
  the in-memory tier *and* the on-disk recipe store;
* the ``pass-backend-coupled`` lint rule that keeps compiler passes
  off backend internals;
* hypothesis properties: an explicit ``backend="gaudi"`` compile is
  byte-identical to the default-options compile on every random
  graph, and the WSE path produces finite, positive, PE-grid-only
  timings on the same corpus;
* the e2e front door rejects unknown model names with a
  :class:`~repro.util.errors.DataError`, not a ``KeyError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ht
from repro.core.e2e_llm import record_forward_step, record_training_step
from repro.core.sweep import SweepSpec, sweep_spec_from_cli
from repro.ht import functional as F
from repro.hw.backend import (
    GaudiBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.hw.backends.wse import (
    PEGridModel,
    WSEBackend,
    WSEConfig,
    WSEDevice,
)
from repro.hw.config import GaudiConfig
from repro.hw.costmodel import EngineKind, MatmulDims
from repro.hw.device import GaudiDevice
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    RecipeCache,
    Runtime,
    recipe_key,
)
from repro.synapse.lint import lint_passes
from repro.synapse.passes import CompilerPass
from repro.util.errors import ConfigError, DataError


def record_program(scale=1.0, rows=4, name="prog"):
    with ht.record(name, mode="concrete") as rec:
        a = ht.tensor(np.ones((rows, 6), dtype=np.float32), name="a")
        b = ht.tensor(np.ones((6, 8), dtype=np.float32), name="b")
        x = F.matmul(a, b)
        x = F.softmax(F.mul_scalar(x, scale), axis=-1)
        F.mean(x)
    return rec


def compute_engines(schedule):
    """Engines the schedule actually computes on (DMA/HOST/NIC aside)."""
    shared = {EngineKind.DMA, EngineKind.HOST, EngineKind.NIC}
    return {op.engine for op in schedule.ops} - shared


class TestRegistry:
    def test_builtins_registered(self):
        assert "gaudi" in backend_names()
        assert "wse" in backend_names()

    def test_lookup_returns_singletons(self):
        assert get_backend("gaudi") is get_backend("gaudi")
        assert isinstance(get_backend("gaudi"), GaudiBackend)
        assert isinstance(get_backend("wse"), WSEBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError, match="unknown backend 'tpu'"):
            get_backend("tpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend(GaudiBackend())

    def test_anonymous_backend_rejected(self):
        class Nameless(GaudiBackend):
            name = ""

        with pytest.raises(ConfigError, match="non-empty name"):
            register_backend(Nameless())

    def test_coerce_config_keeps_own_and_swaps_foreign(self):
        gaudi, wse = get_backend("gaudi"), get_backend("wse")
        mine = GaudiConfig()
        assert gaudi.coerce_config(mine) is mine
        assert isinstance(gaudi.coerce_config(WSEConfig()), GaudiConfig)
        assert isinstance(gaudi.coerce_config(None), GaudiConfig)
        theirs = WSEConfig()
        assert wse.coerce_config(theirs) is theirs
        assert isinstance(wse.coerce_config(GaudiConfig()), WSEConfig)

    def test_role_engines(self):
        gaudi, wse = get_backend("gaudi"), get_backend("wse")
        assert gaudi.matmul_engine is EngineKind.MME
        assert gaudi.vector_engine is EngineKind.TPC
        assert gaudi.supports_tpc_slicing
        assert wse.matmul_engine is EngineKind.PE
        assert wse.vector_engine is EngineKind.PE
        assert not wse.supports_tpc_slicing
        assert EngineKind.MME not in wse.engines
        assert EngineKind.TPC not in wse.engines

    def test_make_device_matches_backend(self):
        assert isinstance(get_backend("gaudi").make_device(), GaudiDevice)
        device = get_backend("wse").make_device()
        assert isinstance(device, WSEDevice)


class TestCachePoisoning:
    """PR regression: backend identity must key BOTH recipe-cache tiers.

    Before the backend field joined ``options_signature``, a recipe
    compiled for one backend could replay verbatim under the other —
    a Gaudi MME/TPC schedule executing on a device with neither
    engine. Same graph, different backend, must always miss.
    """

    def test_backend_changes_recipe_key(self):
        graph = record_program().graph
        config = GaudiConfig()
        assert (
            recipe_key(graph, config, CompilerOptions(backend="gaudi"))
            != recipe_key(graph, config, CompilerOptions(backend="wse"))
        )

    def test_default_key_equals_explicit_gaudi_key(self):
        graph = record_program().graph
        config = GaudiConfig()
        assert recipe_key(graph, config, CompilerOptions()) == recipe_key(
            graph, config, CompilerOptions(backend="gaudi")
        )

    def test_memory_tier_never_replays_across_backends(self):
        cache = RecipeCache()
        gaudi = GraphCompiler(
            options=CompilerOptions(backend="gaudi"), cache=cache
        )
        first = gaudi.compile(record_program().graph)
        assert gaudi.last_cache_hit is False
        assert compute_engines(first) == {EngineKind.MME, EngineKind.TPC}

        wse = GraphCompiler(
            options=CompilerOptions(backend="wse"), cache=cache
        )
        second = wse.compile(record_program().graph)
        assert wse.last_cache_hit is False, (
            "wse compile replayed the gaudi recipe from the shared cache"
        )
        assert compute_engines(second) == {EngineKind.PE}
        assert len(cache) == 2

        # and the original gaudi entry still hits for gaudi
        third = gaudi.compile(record_program().graph)
        assert gaudi.last_cache_hit is True
        assert compute_engines(third) == {EngineKind.MME, EngineKind.TPC}

    def test_disk_tier_never_replays_across_backends(self, tmp_path):
        graph = record_program().graph
        GraphCompiler(
            options=CompilerOptions(backend="gaudi"),
            cache=RecipeCache(save_dir=tmp_path),
        ).compile(graph)
        assert len(list(tmp_path.glob("*.json"))) == 1

        cache = RecipeCache(save_dir=tmp_path)
        compiler = GraphCompiler(
            options=CompilerOptions(backend="wse"), cache=cache
        )
        schedule = compiler.compile(record_program().graph)
        assert compiler.last_cache_hit is False, (
            "wse compile disk-hit the gaudi recipe blob"
        )
        assert cache.disk_hits == 0
        assert compute_engines(schedule) == {EngineKind.PE}
        # both backends' recipes now coexist on disk ...
        assert len(list(tmp_path.glob("*.json"))) == 2

        # ... and each replays only for its own backend
        reread = RecipeCache(save_dir=tmp_path)
        verifier = GraphCompiler(
            options=CompilerOptions(backend="wse"), cache=reread
        )
        replayed = verifier.compile(record_program().graph)
        assert verifier.last_cache_hit is True
        assert reread.disk_hits == 1
        assert compute_engines(replayed) == {EngineKind.PE}


class TestBackendCouplingLint:
    def test_default_pipeline_is_clean(self):
        assert [
            w for w in lint_passes() if w.rule == "pass-backend-coupled"
        ] == []

    def test_coupled_pass_flagged(self):
        class HardwiredPass(CompilerPass):
            name = "hardwired"
            signature_deps = ("structure",)

            def run(self, state):
                # names a Gaudi engine instead of asking state.backend
                return {
                    "n": len(state.graph.nodes),
                    "engine": EngineKind.MME.value,
                }

        findings = lint_passes([HardwiredPass()])
        assert [w.rule for w in findings] == ["pass-backend-coupled"]
        assert "hardwired" in findings[0].message
        assert "state.backend" in findings[0].message

    def test_config_poking_pass_flagged(self):
        class PricePeekPass(CompilerPass):
            name = "price-peek"
            signature_deps = ("structure",)

            def run(self, state):
                return {
                    "n": len(state.graph.nodes),
                    "peak": state.config.mme.peak_tflops,
                }

        rules = [w.rule for w in lint_passes([PricePeekPass()])]
        assert rules == ["pass-backend-coupled"]


UNARY = ("exp", "relu", "sigmoid", "neg")
BINARY = ("add", "mul", "maximum")


def build_program(draw_ops, dims):
    rows, inner, cols = dims
    rng = np.random.default_rng(4242)
    a = ht.tensor(rng.normal(size=(rows, inner)).astype(np.float32), name="a")
    b = ht.tensor(rng.normal(size=(inner, cols)).astype(np.float32), name="b")
    pool = [F.matmul(a, b)]
    for kind, idx in draw_ops:
        src = pool[idx % len(pool)]
        if kind < len(UNARY):
            out = getattr(F, UNARY[kind])(src)
        elif kind < len(UNARY) + len(BINARY):
            other = pool[(idx + 1) % len(pool)]
            out = getattr(F, BINARY[kind - len(UNARY)])(src, other)
        else:
            out = F.softmax(src, axis=-1)
        pool.append(out)
    total = pool[0]
    for t in pool[1:]:
        total = F.add(total, t)
    return F.mean(total)


def record_random(ops, dims):
    with ht.record("backend-random", mode="concrete") as rec:
        build_program(ops, dims)
    return rec.graph


program_strategy = st.lists(
    st.tuples(st.integers(0, len(UNARY) + len(BINARY)), st.integers(0, 31)),
    min_size=1, max_size=8,
)
dims_strategy = st.tuples(
    st.integers(2, 12), st.integers(2, 12), st.integers(2, 12)
)


def event_tuples(result):
    return sorted(
        (ev.name, ev.engine.value, ev.start_us, ev.dur_us)
        for ev in result.timeline.events
    )


class TestGaudiByteIdentity:
    """``backend="gaudi"`` is the pre-refactor path, bit for bit."""

    @given(program_strategy, dims_strategy, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_explicit_gaudi_matches_default(self, ops, dims, reorder):
        graph = record_random(ops, dims)
        default = GraphCompiler(options=CompilerOptions()).compile(graph)
        explicit = GraphCompiler(
            options=CompilerOptions(backend="gaudi")
        ).compile(graph)
        assert [
            (op.label, op.engine, tuple(op.deps)) for op in explicit.ops
        ] == [(op.label, op.engine, tuple(op.deps)) for op in default.ops]
        assert explicit.memory.peak_bytes == default.memory.peak_bytes

        scheduler = "reorder" if reorder else "inorder"
        run_d = Runtime(GaudiDevice()).execute(default, scheduler=scheduler)
        run_e = Runtime(GaudiDevice()).execute(explicit, scheduler=scheduler)
        assert run_e.total_time_us == run_d.total_time_us
        assert event_tuples(run_e) == event_tuples(run_d)


class TestWSESmoke:
    """The WSE path stays finite, positive, and PE-grid-only."""

    @given(program_strategy, dims_strategy)
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_profile_finite(self, ops, dims):
        graph = record_random(ops, dims)
        schedule = GraphCompiler(
            options=CompilerOptions(backend="wse")
        ).compile(graph)
        assert compute_engines(schedule) == {EngineKind.PE}
        result = Runtime(WSEDevice()).execute(schedule)
        assert np.isfinite(result.total_time_us)
        assert result.total_time_us > 0.0
        for ev in result.timeline.events:
            assert np.isfinite(ev.dur_us) and ev.dur_us >= 0.0
            assert ev.engine in get_backend("wse").engines

    @given(
        st.integers(1, 64),
        st.integers(1, 1 << 14),
        st.integers(1, 1 << 14),
        st.integers(1, 1 << 14),
    )
    @settings(max_examples=50, deadline=None)
    def test_pe_grid_costs_positive_on_any_geometry(self, batch, m, k, n):
        cfg = WSEConfig()
        model = PEGridModel(cfg.pe, cfg.memoryx)
        dims = MatmulDims(batch=batch, m=m, k=k, n=n)
        tflops = model.achieved_tflops(dims)
        assert np.isfinite(tflops) and 0.0 < tflops
        assert tflops <= cfg.pe.peak_matmul_tflops * 2.0  # fp8 ceiling
        time_us = model.matmul_time_us(dims)
        assert np.isfinite(time_us)
        assert time_us >= cfg.pe.launch_overhead_us


class TestSweepBackendAxis:
    def test_backend_axis_labels_and_overrides(self):
        spec = SweepSpec(
            name="t", models=("gpt",),
            policies=(("default", ()), ("ddp", (("inject_collectives", True),))),
            backend=("gaudi", "wse"),
        )
        points = spec.expand()
        assert [p.policy for p in points] == [
            "default@gaudi", "default@wse", "ddp@gaudi", "ddp@wse",
        ]
        assert ("backend", "wse") in points[1].overrides
        assert ("backend", "gaudi") in points[2].overrides

    def test_non_gaudi_backend_rejects_populations(self):
        spec = SweepSpec(name="t", cards=(4,), backend=("wse",))
        with pytest.raises(ConfigError, match="single device"):
            spec.expand()

    def test_cli_spec_validates_backend_names(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            sweep_spec_from_cli(
                ("gpt",), (8,), (128,), (1,), ("default",),
                backend=("nope",),
            )


class TestE2EModelErrors:
    def test_training_step_unknown_model(self):
        with pytest.raises(
            DataError, match=r"unknown model 'nope'; use 'gpt' or 'bert'"
        ):
            record_training_step("nope")

    def test_forward_step_unknown_model(self):
        with pytest.raises(
            DataError, match=r"unknown model 'nope'; use 'gpt' or 'bert'"
        ):
            record_forward_step("nope")
