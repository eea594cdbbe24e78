"""Compiled schedules hold tuples, and collective injection remaps in order.

After emission a compiled schedule's sequence fields (``items``,
``deps``, ``reads``, ``writes``, ``node_ids``) are tuples that no pass
changes in place; every pass that re-indexes ops assigns new ones. This
module pins that rule over the pass configurations that rewrite ops
(tensor parallel, pipeline partition, memory planning, no DMA staging,
no fusion) and through a JSON round trip, and holds the collective
injection pass's in-order dependency remap to the loop it replaced —
kept below verbatim as :func:`reference_collective_injection` — op for
op.
"""

import copy
import dataclasses

import pytest

from repro.core.e2e_llm import record_training_step
from repro.synapse import CompilerOptions, GraphCompiler
from repro.synapse.ops import work_item_for
from repro.synapse.passes import CollectiveInjectionPass
from repro.synapse.schedule import ScheduledOp
from repro.synapse.serialize import schedule_from_json, schedule_to_json
from repro.util.units import MIB

SEQUENCES = ("items", "deps", "reads", "writes", "node_ids")


def reference_collective_injection(state) -> dict:
    """The injection loop before the in-order remap: every op's deps
    are re-sorted through a set, whether or not the map moved them."""
    gradients = state.graph.gradients()
    if not gradients:
        return {"transforms": 0, "buckets": 0, "gradient_bytes": 0}

    tp_info = state.stats.get("tensor_parallel") or {}
    tp = int(tp_info.get("tp", 1) or 1)
    shard_vids: set[int] = (
        set(tp_info.get("shard_vids", ())) if tp > 1 else set()
    )

    producer_of: dict[int, int] = {}
    for op in state.ops:
        for vid in op.writes:
            producer_of[vid] = op.index
    grads: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    for vid, _name in gradients:
        storage = state.alias.get(vid, vid)
        idx = producer_of.get(storage)
        if idx is None or storage in seen:
            continue
        seen.add(storage)
        nbytes = state.graph.value(storage).nbytes
        if storage in shard_vids:
            nbytes //= tp
        grads.append((idx, storage, nbytes))
    if not grads:
        return {"transforms": 0, "buckets": 0, "gradient_bytes": 0}
    grads.sort()

    cap = (
        state.options.bucket_mb * MIB
        if state.options.comm_overlap
        else float("inf")
    )
    buckets: list[list[tuple[int, int, int]]] = []
    bucket: list[tuple[int, int, int]] = []
    bucket_bytes = 0
    bucket_dtype = None
    for idx, vid, nbytes in grads:
        dtype = state.graph.value(vid).dtype
        if bucket and (bucket_bytes + nbytes > cap or dtype != bucket_dtype):
            buckets.append(bucket)
            bucket, bucket_bytes = [], 0
        bucket.append((idx, vid, nbytes))
        bucket_bytes += nbytes
        bucket_dtype = dtype
    buckets.append(bucket)

    anchored: dict[int, list[list[tuple[int, int, int]]]] = {}
    for b in buckets:
        anchored.setdefault(max(i for i, _, _ in b), []).append(b)
    index_map: dict[int, int] = {}
    coll_for_vid: dict[int, int] = {}
    new_ops: list[ScheduledOp] = []
    n_collectives = 0
    for op in state.ops:
        old_index = op.index
        extra = {coll_for_vid[v] for v in op.reads if v in coll_for_vid}
        index_map[old_index] = len(new_ops)
        op.index = len(new_ops)
        op.deps = sorted({*(index_map[d] for d in op.deps), *extra})
        new_ops.append(op)
        for b in anchored.get(old_index, ()):
            vids = [v for _, v, _ in b]
            elems = sum(
                state.graph.value(v).numel // (tp if v in shard_vids else 1)
                for v in vids
            )
            item = work_item_for(
                "all_reduce", [(elems,)], (elems,),
                state.graph.value(vids[0]).dtype, {},
                label=f"all_reduce:bucket{n_collectives}",
            )
            coll = ScheduledOp(
                index=len(new_ops),
                label=f"all_reduce:bucket{n_collectives}",
                engine=state.backend.collective_engine,
                items=[item],
                deps=sorted(index_map[i] for i, _, _ in b),
                src="all_reduce",
                scope="ddp",
                reads=sorted(vids),
                writes=[],
            )
            new_ops.append(coll)
            for v in vids:
                coll_for_vid[v] = coll.index
            n_collectives += 1
    state.ops = new_ops

    total_bytes = sum(nb for _, _, nb in grads)
    state.stats["collectives"] = n_collectives
    state.stats["gradient_bytes"] = total_bytes
    return {
        "transforms": n_collectives,
        "buckets": n_collectives,
        "gradients": len(grads),
        "gradient_bytes": total_bytes,
    }


def _row(op: ScheduledOp) -> tuple:
    """An op's fields, with every sequence read as a tuple."""
    return (
        op.index, op.label, op.engine, *(
            tuple(getattr(op, name)) for name in SEQUENCES
        ), op.src, op.scope, op.external_read_bytes,
    )


@pytest.fixture(scope="module")
def graphs():
    return {
        model: record_training_step(model, batch=2, seq_len=64).graph
        for model in ("gpt", "bert")
    }


class TestCollectiveRemap:
    @pytest.mark.parametrize("model", ["gpt", "bert"])
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("bucket_mb", [1.0, 25.0, float("inf")])
    @pytest.mark.parametrize("tp", [1, 2])
    def test_matches_reference_op_for_op(
        self, monkeypatch, graphs, model, overlap, bucket_mb, tp
    ):
        seen = []
        real = CollectiveInjectionPass.run

        def both(self, state):
            ref = copy.copy(state)
            ref.ops = [op.clone() for op in state.ops]
            ref.stats = copy.deepcopy(state.stats)
            expected = reference_collective_injection(ref)
            got = real(self, state)
            # the pass manager pops from the dict it is handed
            seen.append((ref, expected, state, dict(got)))
            return got

        monkeypatch.setattr(CollectiveInjectionPass, "run", both)
        GraphCompiler(options=CompilerOptions(
            inject_collectives=True, comm_overlap=overlap,
            bucket_mb=bucket_mb, tp=tp, use_recipe_cache=False,
        )).compile(graphs[model])
        ((ref, expected, state, got),) = seen
        assert got == expected
        assert state.stats["collectives"] == ref.stats["collectives"] > 0
        assert state.stats["gradient_bytes"] == ref.stats["gradient_bytes"]
        assert len(state.ops) == len(ref.ops)
        for new, old in zip(state.ops, ref.ops):
            assert _row(new) == _row(old), old.label


def _configs(graphs):
    """(name, graph, options) for every pass that rewrites ops."""
    gpt = graphs["gpt"]
    ddp = CompilerOptions(inject_collectives=True, use_recipe_cache=False)
    checkpointed = record_training_step(
        "gpt", batch=2, seq_len=64, checkpoint=True
    ).graph
    oracle = GraphCompiler(options=dataclasses.replace(
        ddp, enforce_memory=False,
    )).compile(checkpointed).memory
    budget = oracle.persistent_bytes + (
        oracle.peak_bytes - oracle.persistent_bytes
    ) // 2
    return [
        ("default", gpt, ddp),
        ("tp2", gpt, dataclasses.replace(ddp, tp=2)),
        ("pp2", gpt, dataclasses.replace(ddp, pp=2, microbatches=2)),
        ("memory-auto", checkpointed, dataclasses.replace(
            ddp, memory_policy="auto", hbm_budget=budget,
            enforce_memory=False,
        )),
        ("no-dma", gpt, dataclasses.replace(ddp, insert_dma=False)),
        ("no-fusion", gpt, dataclasses.replace(ddp, fuse_elementwise=False)),
    ]


def _assert_tuple_rule(schedule) -> None:
    for op in schedule.ops:
        for name in SEQUENCES:
            assert type(getattr(op, name)) is tuple, (op.label, name)
        assert list(op.deps) == sorted(set(op.deps)), op.label
        assert all(d < op.index for d in op.deps), op.label


class TestTupleRule:
    @pytest.fixture(scope="class")
    def schedules(self, graphs):
        return {
            name: GraphCompiler(options=options).compile(graph)
            for name, graph, options in _configs(graphs)
        }

    @pytest.mark.parametrize("name", [
        "default", "tp2", "pp2", "memory-auto", "no-dma", "no-fusion",
    ])
    def test_sequences_are_tuples_and_deps_sorted(self, schedules, name):
        schedule = schedules[name]
        _assert_tuple_rule(schedule)
        if name == "memory-auto":
            memory = schedule.stats["memory"]
            assert memory["spill_ops"] + memory["recompute_ops"] > 0
        if name in ("tp2", "pp2"):
            assert any(op.scope in ("tp", "pp") for op in schedule.ops)

    @pytest.mark.parametrize("name", [
        "default", "tp2", "pp2", "memory-auto", "no-dma", "no-fusion",
    ])
    def test_json_round_trip_keeps_the_rule(self, schedules, name):
        schedule = schedules[name]
        loaded = schedule_from_json(schedule_to_json(schedule))
        _assert_tuple_rule(loaded)
        assert [op.deps for op in loaded.ops] == [
            op.deps for op in schedule.ops
        ]
