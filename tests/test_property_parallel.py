"""Property-based tests: TP/PP sharding never touches the numerics.

The parallelism passes transform only the *cost model* — sharded
WorkItem geometry, injected NIC collectives, stage cuts. The graph's
functional semantics must be untouched: a forward+backward+optimizer
step compiled at any ``(tp, pp)`` executes to byte-identical values
(``.tobytes()`` equality, not allclose) as the unsharded compile of
the same recording. ``execute_schedule`` additionally self-checks
every scheduled op against the graph-level reference, so a sharded
schedule that dropped or reordered member nodes fails loudly.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import ht
from repro.ht import functional as F
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    execute_schedule,
)


def record_train_mlp(width, depth, batch, seed):
    """A concrete fwd+bwd+SGD MLP step; returns (graph, inputs)."""
    lins = [ht.Linear(width, width, materialize=True, name=f"lin{i}")
            for i in range(depth)]
    params = [p for lin in lins for p in lin.parameters()]
    # snapshot parameters before SGD mutates them in concrete mode
    inputs = {p.name: p.data.copy() for p in params}
    rng = np.random.default_rng(seed)
    x_np = rng.normal(size=(batch, width)).astype(np.float32)
    inputs["x"] = x_np
    with ht.record("parallel-prop", mode="concrete") as rec:
        h = ht.tensor(x_np, name="x")
        for lin in lins:
            h = F.relu(lin(h))
        loss = F.mean(h)
        loss.backward()
        ht.SGD(params, lr=0.01).step()
    return rec.graph, inputs


def compile_layout(graph, tp=1, pp=1):
    options = dataclasses.replace(
        CompilerOptions(),
        inject_collectives=True,
        tp=tp,
        pp=pp,
        microbatches=pp,
    )
    return GraphCompiler(options=options).compile(graph)


def assert_env_byte_identical(ref_env, env):
    assert set(ref_env) == set(env)
    for vid, ref in ref_env.items():
        assert env[vid].tobytes() == ref.tobytes(), f"vid {vid} diverged"


width_st = st.sampled_from([4, 6, 8, 16])
depth_st = st.integers(1, 3)
batch_st = st.integers(2, 6)
seed_st = st.integers(0, 2**16)


class TestShardedNumerics:
    @given(width_st, depth_st, batch_st, seed_st,
           st.sampled_from([2, 4, 8]))
    @settings(max_examples=15, deadline=None)
    def test_tensor_parallel_byte_identical(
        self, width, depth, batch, seed, tp
    ):
        """TP-sharded fwd+bwd values equal the unsharded compile's."""
        graph, inputs = record_train_mlp(width, depth, batch, seed)
        ref_env = execute_schedule(compile_layout(graph), inputs)
        env = execute_schedule(compile_layout(graph, tp=tp), inputs)
        assert_env_byte_identical(ref_env, env)

    @given(width_st, depth_st, batch_st, seed_st, st.sampled_from([2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_pipeline_partition_byte_identical(
        self, width, depth, batch, seed, pp
    ):
        """PP-partitioned fwd+bwd values equal the unpartitioned."""
        graph, inputs = record_train_mlp(width, depth, batch, seed)
        ref_env = execute_schedule(compile_layout(graph), inputs)
        env = execute_schedule(compile_layout(graph, pp=pp), inputs)
        assert_env_byte_identical(ref_env, env)

    @given(width_st, st.integers(2, 3), batch_st, seed_st,
           st.sampled_from([2, 4]), st.sampled_from([2, 4]))
    @settings(max_examples=10, deadline=None)
    def test_tp_and_pp_compose_byte_identical(
        self, width, depth, batch, seed, tp, pp
    ):
        graph, inputs = record_train_mlp(width, depth, batch, seed)
        ref_env = execute_schedule(compile_layout(graph), inputs)
        env = execute_schedule(compile_layout(graph, tp=tp, pp=pp), inputs)
        assert_env_byte_identical(ref_env, env)

    @given(width_st, depth_st, batch_st, seed_st)
    @settings(max_examples=10, deadline=None)
    def test_parallel_nic_ops_move_no_values(
        self, width, depth, batch, seed
    ):
        """Injected TP/PP ops are cost-only: no node_ids, no writes."""
        graph, _ = record_train_mlp(width, depth, batch, seed)
        schedule = compile_layout(graph, tp=2, pp=2)
        for op in schedule.ops:
            if op.scope in ("tp", "pp"):
                assert not op.node_ids, op.label
                assert not op.writes, op.label
