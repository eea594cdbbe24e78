"""The recipe cache: signature keying, hits/misses, and e2e reuse.

SynapseAI compiles a graph once and replays the recipe; the cache
reproduces that. These tests pin the keying contract (structure,
shapes, dtypes, attrs, and compile-relevant options change the key;
runtime-only options do not), the LRU behaviour, and the end-to-end
consequence: iteration 1 of a training loop pays the compile penalty,
steady-state iterations do not, and a cached compile yields a timeline
identical to a fresh one.
"""

import numpy as np

from repro import ht
from repro.core.e2e_llm import record_training_step
from repro.ht import functional as F
from repro.hw.config import GaudiConfig
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    RecipeCache,
    SynapseProfiler,
    graph_signature,
    recipe_key,
)


def record_program(scale=1.0, rows=4, name="prog"):
    with ht.record(name, mode="concrete") as rec:
        a = ht.tensor(np.ones((rows, 6), dtype=np.float32), name="a")
        b = ht.tensor(np.ones((6, 8), dtype=np.float32), name="b")
        x = F.matmul(a, b)
        x = F.softmax(F.mul_scalar(x, scale), axis=-1)
        F.mean(x)
    return rec


class TestGraphSignature:
    def test_same_program_same_signature(self):
        assert (record_program().graph_signature()
                == record_program().graph_signature())

    def test_shape_changes_signature(self):
        assert (record_program(rows=4).graph_signature()
                != record_program(rows=5).graph_signature())

    def test_attr_changes_signature(self):
        assert (record_program(scale=1.0).graph_signature()
                != record_program(scale=2.0).graph_signature())

    def test_name_changes_signature(self):
        assert (record_program(name="x").graph_signature()
                != record_program(name="y").graph_signature())

    def test_recorder_method_matches_function(self):
        rec = record_program()
        assert rec.graph_signature() == graph_signature(rec.graph)


class TestRecipeKey:
    def test_compile_option_changes_key(self):
        graph = record_program().graph
        config = GaudiConfig()
        assert (
            recipe_key(graph, config, CompilerOptions())
            != recipe_key(graph, config,
                          CompilerOptions(fuse_elementwise=False))
        )

    def test_runtime_only_options_do_not_change_key(self):
        graph = record_program().graph
        config = GaudiConfig()
        base = recipe_key(graph, config, CompilerOptions())
        assert base == recipe_key(graph, config,
                                  CompilerOptions(scheduler="lookahead"))
        assert base == recipe_key(graph, config,
                                  CompilerOptions(use_recipe_cache=False))


class TestScheduleClone:
    """A compiled schedule's sequence fields are tuples, so clones are
    shallow: each op is a new object sharing its tuples, and the
    schedule's op list, memory plan and ``stats`` containers are new."""

    SEQUENCES = ("items", "deps", "reads", "writes", "node_ids")

    def test_clone_equals_original(self):
        schedule = GraphCompiler().compile(record_program().graph)
        clone = schedule.clone()
        assert clone.ops == schedule.ops
        assert clone.ops is not schedule.ops
        for op, copy in zip(schedule.ops, clone.ops):
            assert type(copy) is type(op) and copy is not op
            for name in self.SEQUENCES:
                assert type(getattr(op, name)) is tuple
                assert getattr(copy, name) is getattr(op, name)
        assert clone.stats == schedule.stats
        assert clone.memory == schedule.memory
        assert clone.memory.free_after is not schedule.memory.free_after

    def test_mutating_a_clone_leaves_the_original(self):
        schedule = GraphCompiler().compile(record_program().graph)
        op = schedule.ops[-1]
        for name in self.SEQUENCES:
            before = getattr(op, name)
            copy = op.clone()
            setattr(copy, name, (*before, None))
            assert getattr(op, name) is before
            assert copy != op
        copy = op.clone()
        copy.index += 1
        copy.label = "renamed"
        assert (op.index, op.label) != (copy.index, copy.label)

    def test_stats_containers_are_copied(self):
        schedule = GraphCompiler().compile(record_program().graph)
        schedule.stats["nested"] = {"list": [1, {"deep": [2]}], "t": (3,)}
        clone = schedule.clone()
        assert clone.stats == schedule.stats
        clone.stats["passes"][0]["pass"] = "poisoned"
        clone.stats["nested"]["list"][1]["deep"].append(4)
        clone.stats["nested"]["list"].append(5)
        assert schedule.stats["passes"][0]["pass"] != "poisoned"
        assert schedule.stats["nested"] == {
            "list": [1, {"deep": [2]}], "t": (3,),
        }
        # immutable leaves are shared, not copied
        assert clone.stats["nested"]["t"] is schedule.stats["nested"]["t"]


class TestCompilerCaching:
    def test_recompile_same_graph_hits(self):
        compiler = GraphCompiler()
        first = compiler.compile(record_program().graph)
        assert compiler.last_cache_hit is False
        second = compiler.compile(record_program().graph)
        assert compiler.last_cache_hit is True
        # a hit replays the recipe as a private clone, never the cached
        # object itself (callers may mutate what they get back)
        assert second is not first
        assert [op.label for op in second.ops] == [op.label for op in first.ops]
        assert second.stats["passes"] == first.stats["passes"]
        assert compiler.cache.hits == 1 and compiler.cache.misses == 1

    def test_changed_graph_misses(self):
        compiler = GraphCompiler()
        compiler.compile(record_program(rows=4).graph)
        compiler.compile(record_program(rows=5).graph)
        assert compiler.last_cache_hit is False
        assert len(compiler.cache) == 2

    def test_cache_disabled_never_hits(self):
        compiler = GraphCompiler(
            options=CompilerOptions(use_recipe_cache=False)
        )
        compiler.compile(record_program().graph)
        compiler.compile(record_program().graph)
        assert compiler.last_cache_hit is False
        assert len(compiler.cache) == 0

    def test_caches_are_per_compiler(self):
        """A fresh compiler re-pays compilation (recipes are per
        process in SynapseAI, per compiler instance here)."""
        GraphCompiler().compile(record_program().graph)
        fresh = GraphCompiler()
        fresh.compile(record_program().graph)
        assert fresh.last_cache_hit is False

    def test_lru_eviction(self):
        compiler = GraphCompiler(cache=RecipeCache(maxsize=2))
        g1, g2, g3 = (record_program(rows=r).graph for r in (3, 4, 5))
        compiler.compile(g1)
        compiler.compile(g2)
        compiler.compile(g3)  # evicts g1
        assert len(compiler.cache) == 2
        compiler.compile(g1)
        assert compiler.last_cache_hit is False  # was evicted
        compiler.compile(g2)  # evicted by g1's re-insert
        assert compiler.last_cache_hit is False

    def test_hits_are_mutation_isolated(self):
        """Regression: the cache used to hand every hit the same
        Schedule object, so one caller mutating its schedule (stats,
        memory plan, op list, op fields) silently poisoned every later
        hit. The ops' sequence fields are tuples: a caller can only
        reassign them, never append in place."""
        compiler = GraphCompiler()
        graph = record_program().graph
        first = compiler.compile(graph)
        assert isinstance(first.ops[0].deps, tuple)
        first.stats["passes"].append({"pass": "poisoned"})
        first.stats["poison"] = True
        first.memory.free_after[-1] = 123456
        first.ops[0].deps = (*first.ops[0].deps, 999)
        first.ops[0].label = "poisoned"
        dropped = first.ops.pop()
        second = compiler.compile(graph)
        assert compiler.last_cache_hit is True
        assert {"pass": "poisoned"} not in second.stats["passes"]
        assert "poison" not in second.stats
        assert -1 not in second.memory.free_after
        assert 999 not in second.ops[0].deps
        assert second.ops[0].label != "poisoned"
        assert second.ops[-1].label == dropped.label
        # reassigning on one hit leaves the next hit unchanged too
        assert dropped.reads
        second.ops[-1].reads = ()
        second.ops.pop()
        third = compiler.compile(graph)
        assert third.ops[-1].reads == dropped.reads
        assert len(third.ops) == len(second.ops) + 1

    def test_stored_schedule_not_aliased_by_compiler(self):
        """The object the compiler returns on a miss is the one it just
        stored — mutating it must not corrupt the cached recipe."""
        compiler = GraphCompiler()
        graph = record_program().graph
        miss = compiler.compile(graph)
        miss.ops.clear()
        hit = compiler.compile(graph)
        assert compiler.last_cache_hit is True
        assert len(hit.ops) > 0

    def test_cache_info_counters(self):
        cache = RecipeCache(maxsize=4)
        compiler = GraphCompiler(cache=cache)
        compiler.compile(record_program().graph)
        compiler.compile(record_program().graph)
        info = cache.info()
        assert info == {"hits": 1, "misses": 1, "disk_hits": 0,
                        "size": 1, "maxsize": 4, "save_dir": None}
        cache.clear()
        assert cache.info() == {"hits": 0, "misses": 0, "disk_hits": 0,
                                "size": 0, "maxsize": 4, "save_dir": None}


class TestProfilerIntegration:
    def test_profile_repeated_hits_after_first(self):
        profiler = SynapseProfiler()
        results = profiler.profile_repeated(record_program().graph, 3)
        assert results[0].cache_hit is False
        assert all(r.cache_hit for r in results[1:])
        assert profiler.compiler.cache.hits == 2

    def test_cached_e2e_gpt_step_timeline_identical(self):
        """Compiling the same GPT step from cache changes nothing."""
        profiler = SynapseProfiler()
        graph_a = record_training_step("gpt", batch=2, seq_len=128).graph
        graph_b = record_training_step("gpt", batch=2, seq_len=128).graph
        fresh = profiler.profile(graph_a)
        assert fresh.cache_hit is False
        cached = profiler.profile(graph_b)
        assert cached.cache_hit is True
        assert cached.total_time_us == fresh.total_time_us
        assert len(cached.timeline.events) == len(fresh.timeline.events)
        for ea, eb in zip(fresh.timeline.events, cached.timeline.events):
            assert (ea.name, ea.engine, ea.start_us, ea.dur_us) == (
                eb.name, eb.engine, eb.start_us, eb.dur_us)

    def test_per_pass_stats_survive_cached_compile(self):
        profiler = SynapseProfiler()
        graph = record_program().graph
        first = profiler.profile(graph)
        second = profiler.profile(graph)
        assert second.schedule.stats["passes"] == first.schedule.stats["passes"]
        assert [e["pass"] for e in second.schedule.stats["passes"]]


class TestDiskPersistence:
    """The on-disk recipe store: cross-process reuse, corruption, stats."""

    def _compile(self, cache):
        graph = record_program().graph
        compiler = GraphCompiler(cache=cache)
        schedule = compiler.compile(graph)
        return compiler, schedule

    def test_blob_written_on_put(self, tmp_path):
        cache = RecipeCache(save_dir=tmp_path)
        self._compile(cache)
        blobs = list(tmp_path.glob("*.json"))
        assert len(blobs) == 1

    def test_fresh_cache_hits_from_disk(self, tmp_path):
        _, first = self._compile(RecipeCache(save_dir=tmp_path))
        cache = RecipeCache(save_dir=tmp_path)
        compiler, second = self._compile(cache)
        assert compiler.last_cache_hit is True
        assert cache.disk_hits == 1 and cache.hits == 1
        assert len(second.ops) == len(first.ops)
        assert second.memory.peak_bytes == first.memory.peak_bytes

    def test_disk_recipe_executes_identically(self, tmp_path):
        from repro.hw.device import GaudiDevice
        from repro.synapse import Runtime

        _, first = self._compile(RecipeCache(save_dir=tmp_path))
        _, second = self._compile(RecipeCache(save_dir=tmp_path))
        a = Runtime(GaudiDevice()).execute(first, scheduler="reorder")
        b = Runtime(GaudiDevice()).execute(second, scheduler="reorder")
        assert a.total_time_us == b.total_time_us
        assert len(a.timeline.events) == len(b.timeline.events)

    def test_corrupt_blob_is_a_plain_miss(self, tmp_path):
        self._compile(RecipeCache(save_dir=tmp_path))
        blob = next(tmp_path.glob("*.json"))
        blob.write_text("{garbage")
        cache = RecipeCache(save_dir=tmp_path)
        compiler, _ = self._compile(cache)
        assert compiler.last_cache_hit is False
        assert cache.misses == 1 and cache.disk_hits == 0
        # the recompile republishes a valid blob over the corrupt one
        _, _ = self._compile(RecipeCache(save_dir=tmp_path))

    def test_memory_only_without_save_dir(self, tmp_path):
        cache = RecipeCache()
        assert cache.save_dir is None
        self._compile(cache)
        assert list(tmp_path.glob("*.json")) == []

    def test_process_default_dir(self, tmp_path):
        from repro.synapse import (
            default_recipe_cache_dir,
            set_default_recipe_cache_dir,
        )

        try:
            set_default_recipe_cache_dir(tmp_path)
            assert default_recipe_cache_dir() == tmp_path
            cache = RecipeCache()  # no explicit dir -> process default
            assert cache.save_dir == tmp_path
            self._compile(cache)
            assert len(list(tmp_path.glob("*.json"))) == 1
        finally:
            set_default_recipe_cache_dir(None)
        assert default_recipe_cache_dir() is None

    def test_global_stats_aggregate_across_caches(self, tmp_path):
        from repro.synapse import (
            recipe_cache_stats,
            reset_recipe_cache_stats,
        )

        reset_recipe_cache_stats()
        self._compile(RecipeCache(save_dir=tmp_path))
        self._compile(RecipeCache(save_dir=tmp_path))
        stats = recipe_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["disk_hits"] == 1
        reset_recipe_cache_stats()
        assert recipe_cache_stats() == {
            "hits": 0, "misses": 0, "disk_hits": 0,
        }

    def test_clear_keeps_disk(self, tmp_path):
        cache = RecipeCache(save_dir=tmp_path)
        self._compile(cache)
        cache.clear()
        assert len(cache) == 0
        assert len(list(tmp_path.glob("*.json"))) == 1
        compiler, _ = self._compile(cache)
        assert compiler.last_cache_hit is True  # reloaded from disk


def _race_worker(barrier, save_dir, results):
    """One racing sweep worker: compile + publish the same signature.

    Module-level so a forked process can run it; the barrier releases
    both workers into the compile simultaneously, so their
    ``_save_to_disk`` publications overlap.
    """
    graph = record_program().graph
    cache = RecipeCache(save_dir=save_dir)
    barrier.wait(timeout=30)
    compiler = GraphCompiler(cache=cache)
    schedule = compiler.compile(graph)
    results.put(len(schedule.ops))


class TestConcurrentPublish:
    """Racing ``--jobs`` workers publishing one disk-recipe blob."""

    def test_two_processes_racing_one_signature(self, tmp_path):
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(2)
        results = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_worker,
                args=(barrier, str(tmp_path), results),
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        ops = [results.get(timeout=5), results.get(timeout=5)]
        assert ops[0] == ops[1]

        # exactly one complete blob, no stale temp files left behind
        blobs = list(tmp_path.glob("*.json"))
        assert len(blobs) == 1
        assert not list(tmp_path.glob(".*.tmp"))

        # the published blob is complete: a third cache disk-hits it
        cache = RecipeCache(save_dir=tmp_path)
        compiler = GraphCompiler(cache=cache)
        schedule = compiler.compile(record_program().graph)
        assert compiler.last_cache_hit is True
        assert cache.disk_hits == 1
        assert len(schedule.ops) == ops[0]

    def test_identical_writer_skips_republication(self, tmp_path):
        cache = RecipeCache(save_dir=tmp_path)
        graph = record_program().graph
        GraphCompiler(cache=cache).compile(graph)
        blob = next(tmp_path.glob("*.json"))
        before = blob.stat().st_mtime_ns
        # a second cache compiling the identical workload publishes the
        # same signature — the existing blob must be left untouched
        GraphCompiler(
            cache=RecipeCache(save_dir=tmp_path)
        ).compile(record_program().graph)
        assert blob.stat().st_mtime_ns == before

    def test_corrupt_blob_republished_after_miss(self, tmp_path):
        cache = RecipeCache(save_dir=tmp_path)
        graph = record_program().graph
        GraphCompiler(cache=cache).compile(graph)
        blob = next(tmp_path.glob("*.json"))
        blob.write_text("{garbage")
        # the corrupt load degrades to a miss AND removes the blob, so
        # the recompile's put can publish a good copy over it
        fresh = RecipeCache(save_dir=tmp_path)
        compiler = GraphCompiler(cache=fresh)
        compiler.compile(record_program().graph)
        assert compiler.last_cache_hit is False
        reread = RecipeCache(save_dir=tmp_path)
        verifier = GraphCompiler(cache=reread)
        verifier.compile(record_program().graph)
        assert verifier.last_cache_hit is True
        assert reread.disk_hits == 1
