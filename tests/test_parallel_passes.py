"""The TP/PP sharding passes: structure, stats, guards, recipe keying.

The tensor-parallel pass shards every eligible matmul's cost geometry
and injects scope-``"tp"`` collectives (all_gather after column-
parallel forwards, all_reduce after row-parallel input gradients, none
after weight gradients); the pipeline pass cuts the non-DDP body into
``pp`` contiguous duration-balanced stages joined by aggregated
send/recv pairs. Both passes are pure cost-model transforms — the
numerics half of the contract lives in ``test_property_parallel.py``.
"""

import dataclasses

import pytest

from repro import ht
from repro.ht import functional as F
from repro.hw.costmodel import EngineKind
from repro.synapse import (
    GraphCompiler,
    CompilerOptions,
)
from repro.synapse.recipe import recipe_key
from repro.util.errors import CompileError


def record_mlp(width=16, depth=2, batch=4):
    lins = [ht.Linear(width, width, materialize=False) for _ in range(depth)]
    with ht.record("tp-mlp", mode="symbolic") as rec:
        h = ht.input_tensor((batch, width), name="x")
        for lin in lins:
            h = F.relu(lin(h))
        loss = F.mean(h)
        loss.backward()
        params = [p for lin in lins for p in lin.parameters()]
        ht.SGD(params, lr=0.01).step()
    return rec.graph


def compile_with(graph, **overrides):
    options = dataclasses.replace(
        CompilerOptions(),
        inject_collectives=True,
        **overrides,
    )
    return GraphCompiler(options=options).compile(graph)


class TestTensorParallelPass:
    def test_off_by_default(self):
        schedule = compile_with(record_mlp())
        assert "tensor_parallel" not in schedule.stats
        assert not any(op.scope == "tp" for op in schedule.ops)

    def test_shards_and_injects_collectives(self):
        schedule = compile_with(record_mlp(depth=2), tp=2)
        info = schedule.stats["tensor_parallel"]
        assert info["tp"] == 2
        # per layer: forward, dX and dW matmuls all shard
        assert info["sharded_matmuls"] == 6
        # forward -> all_gather, dX -> all_reduce; dW shards silently
        assert info["tp_collectives"] == 4
        tp_ops = [op for op in schedule.ops if op.scope == "tp"]
        assert len(tp_ops) == 4
        assert {op.src for op in tp_ops} == {"all_gather", "all_reduce"}
        for op in tp_ops:
            assert op.engine is EngineKind.NIC
            assert not op.node_ids  # the executor must skip them
            assert all(d < op.index for d in op.deps)

    def test_sharded_matmul_geometry_divides(self):
        base = compile_with(record_mlp(width=16))
        tp = compile_with(record_mlp(width=16), tp=4)
        base_flops = sum(
            item.matmul.flops
            for op in base.ops for item in op.items
            if item.matmul is not None
        )
        tp_flops = sum(
            item.matmul.flops
            for op in tp.ops for item in op.items
            if item.matmul is not None
        )
        assert tp_flops * 4 == base_flops

    def test_shard_vids_shrink_ddp_buckets(self):
        """DP gradient buckets price sharded dW tensors at 1/tp bytes."""
        base = compile_with(record_mlp())
        tp = compile_with(record_mlp(), tp=2)
        assert (
            tp.stats["tensor_parallel"]["shard_vids"]
        ), "no gradients marked as sharded"

        def bucket_elems(schedule):
            return sum(
                item.elements
                for op in schedule.ops if op.scope == "ddp"
                for item in op.items
            )

        assert bucket_elems(tp) < bucket_elems(base)

    def test_indivisible_width_left_unsharded(self):
        """Matmuls whose shard axis does not divide stay whole."""
        schedule = compile_with(record_mlp(width=6), tp=4)
        info = schedule.stats["tensor_parallel"]
        assert info["sharded_matmuls"] == 0
        assert info["tp_collectives"] == 0


class TestPipelinePartitionPass:
    def test_off_by_default(self):
        schedule = compile_with(record_mlp())
        assert "pipeline" not in schedule.stats
        assert not any(op.scope == "pp" for op in schedule.ops)

    def test_partitions_into_stages(self):
        pp = 2
        schedule = compile_with(record_mlp(depth=3), pp=pp, microbatches=4)
        info = schedule.stats["pipeline"]
        assert info["pp"] == pp and info["microbatches"] == 4
        stage_of = info["stage_of"]  # aligned with final op indices
        assert len(stage_of) == len(schedule.ops)
        assert set(stage_of) == set(range(pp))
        # the cut is contiguous: stages never decrease along the body
        body_stages = [
            stage_of[op.index] for op in schedule.ops if op.scope != "ddp"
        ]
        assert body_stages == sorted(body_stages)
        # one aggregated send/recv pair per boundary
        sends = [op for op in schedule.ops if op.src == "send"]
        recvs = [op for op in schedule.ops if op.src == "recv"]
        assert len(sends) == len(recvs) == pp - 1
        for send, recv in zip(sends, recvs):
            assert send.scope == recv.scope == "pp"
            assert send.index in recv.deps
        assert len(info["boundary_bytes"]) == pp - 1
        assert all(b > 0 for b in info["boundary_bytes"])

    def test_ddp_tail_lands_on_late_stages(self):
        """Gradient all-reduces ride behind the stages that feed them."""
        schedule = compile_with(record_mlp(depth=3), pp=2, microbatches=4)
        stage_of = schedule.stats["pipeline"]["stage_of"]
        for op in schedule.ops:
            if op.scope == "ddp":
                assert stage_of[op.index] in (0, 1)
                for dep in op.deps:
                    assert stage_of[dep] <= stage_of[op.index]

    def test_deps_stay_backward(self):
        schedule = compile_with(record_mlp(depth=3), pp=4, microbatches=4)
        for op in schedule.ops:
            assert all(d < op.index for d in op.deps), op.label

    def test_rejects_underfilled_pipeline(self):
        with pytest.raises(CompileError, match="microbatches"):
            compile_with(record_mlp(), pp=4, microbatches=2)

    def test_rejects_more_stages_than_ops(self):
        graph = record_mlp(depth=1)
        n_body = len(compile_with(graph).ops)
        with pytest.raises(CompileError, match="fewer than"):
            compile_with(record_mlp(depth=1), pp=2 * n_body,
                         microbatches=2 * n_body)


class TestRecipeKeying:
    """tp/pp/microbatches are compile-relevant: they must key recipes."""

    def test_layouts_get_distinct_signatures(self):
        from repro.hw.config import GaudiConfig

        graph = record_mlp()
        base = CompilerOptions()
        config = GaudiConfig()
        seen = set()
        for overrides in ({}, {"tp": 2}, {"tp": 4},
                          {"pp": 2, "microbatches": 2},
                          {"pp": 2, "microbatches": 4},
                          {"tp": 2, "pp": 2, "microbatches": 2}):
            options = dataclasses.replace(
                base, inject_collectives=True, **overrides
            )
            seen.add(recipe_key(graph, config, options))
        assert len(seen) == 6

    def test_default_options_expose_parallel_fields(self):
        options = CompilerOptions()
        assert options.tp == 1
        assert options.pp == 1
        assert options.microbatches == 1

    def test_tp_and_pp_compose(self):
        schedule = compile_with(record_mlp(depth=3), tp=2, pp=2,
                                microbatches=4)
        assert schedule.stats["tensor_parallel"]["sharded_matmuls"] > 0
        assert schedule.stats["pipeline"]["pp"] == 2
        scopes = {op.scope for op in schedule.ops if op.scope}
        assert {"tp", "pp", "ddp"} <= scopes
