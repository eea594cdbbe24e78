"""The collector pause: its contract, and the premise that makes it free.

:func:`repro.util.gc_paused` turns CPython's cyclic garbage collector
off over ``ht.record``, ``GraphCompiler.compile``, ``Runtime.execute``,
``HLS1Runtime.execute``, ``generate_requests`` and
``ServingSimulator.run``. That costs
nothing only if those calls create no reference cycles: reference
counting then frees everything they allocate, and a collection inside
them would find nothing to free. The premise tests run each call with
the collector off and ``gc.DEBUG_SAVEALL`` on, drop the results, and
require the next collection to find zero unreachable objects.

Cold serving set-up is left out on purpose, and so is reading a
served result: the first ``np.percentile`` call in a process (which
``ServingResult.metrics()`` makes) leaves 317 one-time cyclic objects
behind, closures made by the standard library's ``ast.literal_eval``
and ``inspect.signature``, not by repo code. The serving premise is
checked on a warm run.
"""

import gc
import weakref

import pytest

from repro import ht
from repro.core.serving import (
    ServingSimulator,
    ServingWorkload,
    generate_requests,
)
from repro.hw.device import HLS1Config, HLS1Device
from repro.models import (
    GPT2LMHeadModel,
    paper_gpt_config,
    scaled,
    tiny_gpt_config,
)
from repro.synapse import CompilerOptions, GraphCompiler, HLS1Runtime
from repro.synapse.recipe import RecipeCache
from repro.synapse.serving import ServingRuntime
from repro.util import gc_paused

POLICIES = {
    "inorder": {"scheduler": "inorder"},
    "lookahead": {"scheduler": "lookahead"},
    "uncontended": {"scheduler": "inorder", "hbm_contention": False},
}


def _record_gpt_step():
    """Record one symbolic training step of a tiny GPT; return its graph."""
    cfg = tiny_gpt_config()
    model = GPT2LMHeadModel(cfg, materialize=False)
    with ht.record("gpt-train-step", mode="symbolic") as rec:
        ids = ht.input_tensor((2, 32), name="input_ids")
        targets = ht.input_tensor((2, 32, cfg.vocab_size), name="targets")
        model.loss(ids, targets).backward()
        ht.SGD(model.parameters(), lr=0.01).step()
    return rec.graph


def _cyclic_garbage(fn) -> int:
    """Run ``fn`` and count the unreachable objects it leaves behind.

    ``fn`` runs with the collector off and ``DEBUG_SAVEALL`` on, so the
    count is of objects that only a collection could free; both
    settings are restored afterwards, and what was found is freed.
    """
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        fn()
        return gc.collect()
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
        if was_enabled:
            gc.enable()


class TestContract:
    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_regions_restore_at_the_outermost_exit(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_when_the_body_raises(self):
        with pytest.raises(ValueError):
            with gc_paused():
                raise ValueError("inside")
        assert gc.isenabled()

    def test_leaves_a_caller_disabled_collector_off(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_record_body_runs_paused(self):
        with ht.record("paused", mode="symbolic"):
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_region_exit_starts_no_collection(self):
        """What a region leaves alive moves to the oldest generation
        unwalked, so allocating on after it starts no young collection
        even at a threshold of 50."""
        starts = []

        def on_gc(phase, info):
            """Count collection starts."""
            if phase == "start":
                starts.append(info["generation"])

        threshold = gc.get_threshold()
        gc.collect()  # start from an empty young generation
        gc.callbacks.append(on_gc)
        gc.set_threshold(50, 10, 10)
        try:
            with gc_paused():
                kept = [[i] for i in range(1000)]
            more = [[i] for i in range(20)]
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(on_gc)
        assert starts == []
        assert len(kept) + len(more) == 1020

    def test_survivors_move_to_the_oldest_generation(self):
        with gc_paused():
            kept = [0]
        assert any(obj is kept for obj in gc.get_objects(generation=2))

    def test_a_cycle_made_inside_a_record_is_freed_by_a_full_collection(self):
        class Cyclic:
            """An object that refers to itself."""

        with ht.record("cycle", mode="symbolic"):
            obj = Cyclic()
            obj.me = obj
            ref = weakref.ref(obj)
            del obj
        gc.collect()
        assert ref() is None

    def test_leaves_a_caller_frozen_heap_frozen(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with gc_paused():
                pass
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_execute_runs_no_collection_inside_its_region(self):
        """At a threshold that would collect every few allocations, an
        execute starts at most one collection: on the way out, when
        its region ends."""
        starts = []

        def on_gc(phase, info):
            """Count collection starts."""
            if phase == "start":
                starts.append(info["generation"])

        threshold = gc.get_threshold()
        gc.callbacks.append(on_gc)
        gc.set_threshold(50, 10, 10)
        try:
            graph = _record_gpt_step()
            schedule = GraphCompiler(
                options=CompilerOptions(inject_collectives=True),
                cache=RecipeCache(),
            ).compile(graph)
            runtime = HLS1Runtime(HLS1Device(HLS1Config(num_cards=8)))
            before = len(starts)
            runtime.execute(schedule, scheduler="lookahead")
            assert len(starts) - before <= 1
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(on_gc)


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("cards", [1, 8])
    def test_training_step(self, cards, policy):
        """Cold (recipe miss, first prep) then warm (recipe hit, cached
        prep) record → compile → execute of a DDP step."""
        compiler = GraphCompiler(
            options=CompilerOptions(inject_collectives=True),
            cache=RecipeCache(),
        )
        runtime = HLS1Runtime(HLS1Device(HLS1Config(num_cards=cards)))

        def step():
            """Record, compile and execute twice; keep nothing."""
            schedule = compiler.compile(_record_gpt_step())
            for _ in range(2):
                runtime.execute(schedule, **POLICIES[policy])

        assert _cyclic_garbage(step) == 0
        assert _cyclic_garbage(step) == 0

    def test_pipelined_step(self):
        compiler = GraphCompiler(
            options=CompilerOptions(
                inject_collectives=True, pp=2, microbatches=4
            ),
            cache=RecipeCache(),
        )
        runtime = HLS1Runtime(HLS1Device(HLS1Config(num_cards=8)))

        def step():
            """A pp=2 schedule, compiled and executed; keep nothing."""
            schedule = compiler.compile(_record_gpt_step())
            assert schedule.stats["pipeline"]["pp"] == 2
            runtime.execute(schedule)

        assert _cyclic_garbage(step) == 0
        assert _cyclic_garbage(step) == 0

    def test_warm_serving_run(self):
        sim = ServingSimulator(
            ServingRuntime(),
            model_config=scaled(paper_gpt_config(), vocab_size=128,
                                seq_len=256),
            max_batch=4, ctx_quantum=64,
        )
        trace = generate_requests(
            300, 40.0, workload=ServingWorkload(
                prompt_range=(4, 48), output_range=(2, 40)
            ),
        )
        for policy in ("continuous", "static"):
            sim.run(trace, policy)  # cold: measures every geometry

        def serve():
            """Serve the trace under both policies; keep nothing."""
            for policy in ("continuous", "static"):
                sim.run(trace, policy)

        assert _cyclic_garbage(serve) == 0

    def test_trace_generation(self):
        def generate():
            """Draw a request trace; keep nothing."""
            generate_requests(2000, 40.0, seed=3)

        assert _cyclic_garbage(generate) == 0
        assert _cyclic_garbage(generate) == 0
