"""Property-based tests: compiler/runtime invariants on random graphs.

A hypothesis strategy builds random-but-valid op DAGs through the ht
frontend (mixing matmuls, elementwise chains, reductions, softmax);
the properties assert the simulator's core contracts:

* compiled schedules respect dependencies and program order;
* engines never run two ops at once, in either issue mode;
* reordered execution is never slower than in-order;
* the functional executor agrees with the eager frontend for every
  random graph, with fusion on or off;
* the memory plan's peak is at least the persistent footprint and
  never below any single live value.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ht
from repro.ht import functional as F
from repro.hw.device import GaudiDevice
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    Runtime,
    execute_graph,
    execute_schedule,
    validate_no_engine_overlap,
)
from tests.fluid_reference import _fluid_execute

# -- random-graph construction ---------------------------------------------------

UNARY = ("exp", "relu", "sqrtabs", "square", "neg", "sigmoid")
BINARY = ("add", "sub", "mul", "maximum")


def build_random_program(draw_ops, dims):
    """Build a frontend program from a list of op codes; returns output."""
    rows, inner, cols = dims
    rng = np.random.default_rng(12345)
    a = ht.tensor(rng.normal(size=(rows, inner)).astype(np.float32), name="a")
    b = ht.tensor(rng.normal(size=(inner, cols)).astype(np.float32), name="b")
    x = F.matmul(a, b)
    pool = [x]
    for code in draw_ops:
        kind, idx = code
        src = pool[idx % len(pool)]
        if kind < len(UNARY):
            name = UNARY[kind]
            if name == "sqrtabs":
                out = F.sqrt(F.add_scalar(F.abs(src), 0.1))
            else:
                out = getattr(F, name)(src)
        elif kind < len(UNARY) + len(BINARY):
            other = pool[(idx + 1) % len(pool)]
            out = getattr(F, BINARY[kind - len(UNARY)])(src, other)
        elif kind == len(UNARY) + len(BINARY):
            out = F.softmax(src, axis=-1)
        else:
            out = F.mul_scalar(src, 0.5)
        pool.append(out)
    total = pool[0]
    for t in pool[1:]:
        total = F.add(total, t)
    return F.mean(total)


program_strategy = st.lists(
    st.tuples(st.integers(0, len(UNARY) + len(BINARY) + 1),
              st.integers(0, 31)),
    min_size=1, max_size=12,
)
dims_strategy = st.tuples(
    st.integers(2, 12), st.integers(2, 12), st.integers(2, 12)
)


def record_random(ops, dims):
    with ht.record("random", mode="concrete") as rec:
        out = build_random_program(ops, dims)
        eager = out.numpy()
    return rec.graph, eager


class TestScheduleInvariants:
    @given(program_strategy, dims_strategy, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_deps_point_backwards_and_are_complete(self, ops, dims, fuse):
        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler(
            options=CompilerOptions(fuse_elementwise=fuse)
        ).compile(graph)
        produced_at = {}
        for op in schedule.ops:
            assert all(d < op.index for d in op.deps)
            for vid in op.reads:
                if vid in produced_at:
                    # the producer (or a DMA of it) must be a dependency
                    assert any(
                        d >= produced_at[vid] for d in op.deps
                    ), f"{op.label} misses dep on value {vid}"
            for vid in op.writes:
                produced_at[vid] = op.index

    @given(program_strategy, dims_strategy, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_no_engine_overlap_either_mode(self, ops, dims, reorder):
        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler().compile(graph)
        result = Runtime(GaudiDevice()).execute(
            schedule, scheduler="reorder" if reorder else "inorder"
        )
        validate_no_engine_overlap(result.timeline)

    @given(program_strategy, dims_strategy)
    @settings(max_examples=25, deadline=None)
    def test_reorder_never_slower(self, ops, dims):
        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler().compile(graph)
        t_in = Runtime(GaudiDevice()).execute(schedule).total_time_us
        t_re = Runtime(GaudiDevice()).execute(
            schedule, scheduler="reorder"
        ).total_time_us
        assert t_re <= t_in * 1.001

    @given(program_strategy, dims_strategy)
    @settings(max_examples=25, deadline=None)
    def test_makespan_bounded_by_serial_sum(self, ops, dims):
        """Parallel execution can't exceed the sum of op durations."""
        from repro.synapse.runtime import op_duration_us

        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler().compile(graph)
        device = GaudiDevice()
        serial = sum(
            op_duration_us(device.cost_model, op) for op in schedule.ops
        )
        result = Runtime(device).execute(schedule)
        assert result.total_time_us <= serial + 1e-6
        # and it is at least the longest single op
        longest = max(
            op_duration_us(device.cost_model, op) for op in schedule.ops
        )
        assert result.total_time_us >= longest - 1e-6


class TestContentionInvariants:
    @given(program_strategy, dims_strategy, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_contended_never_faster(self, ops, dims, reorder):
        """Sharing bandwidth can stretch a schedule, never beat it."""
        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler().compile(graph)
        scheduler = "reorder" if reorder else "inorder"
        on = Runtime(GaudiDevice()).execute(
            schedule, scheduler=scheduler, hbm_contention=True
        )
        off = Runtime(GaudiDevice()).execute(
            schedule, scheduler=scheduler, hbm_contention=False
        )
        assert on.total_time_us >= off.total_time_us * (1 - 1e-9) - 1e-6
        assert on.contention_stall_us >= 0.0

    @given(program_strategy, dims_strategy)
    @settings(max_examples=15, deadline=None)
    def test_unshared_fluid_reproduces_replay(self, ops, dims):
        """The fluid event loop (the scalar reference) with sharing off
        agrees with the closed-form replay on every random graph (same
        events, ulp-level timing agreement) — the two memory models
        share one truth."""
        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler().compile(graph)
        legacy = Runtime(GaudiDevice()).execute(
            schedule, hbm_contention=False
        )
        device = GaudiDevice()
        events, stall, _ = _fluid_execute(
            device.cost_model, 1, schedule, list(legacy.issue_order),
            device.now, shared=False,
        )
        assert stall == pytest.approx(0.0, abs=1e-6)
        got = sorted(
            (ev.name, ev.engine.value, ev.start_us, ev.dur_us)
            for ev in events
        )
        want = sorted(
            (ev.name, ev.engine.value, ev.start_us, ev.dur_us)
            for ev in legacy.timeline.events
        )
        assert len(got) == len(want)
        for (gn, ge, gs, gd), (wn, we, ws, wd) in zip(got, want):
            assert gn == wn and ge == we
            assert gs == pytest.approx(ws, rel=1e-9, abs=1e-6)
            assert gd == pytest.approx(wd, rel=1e-9, abs=1e-6)

    @given(program_strategy, dims_strategy)
    @settings(max_examples=15, deadline=None)
    def test_aggregate_drain_rate_bounded(self, ops, dims):
        """No instant grants more than the effective HBM bandwidth."""
        from repro.hw import BandwidthArbiter

        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler().compile(graph)
        device = GaudiDevice()
        bandwidth = device.cost_model.config.hbm.effective_bandwidth
        captured: list[BandwidthArbiter] = []
        original = BandwidthArbiter.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            captured.append(self)

        BandwidthArbiter.__init__ = spy
        try:
            Runtime(device).execute(schedule, hbm_contention=True)
        finally:
            BandwidthArbiter.__init__ = original
        assert captured
        for seg in captured[0].rate_log:
            assert seg.total_rate <= bandwidth * (1 + 1e-12)


class TestExecutorEquivalence:
    @given(program_strategy, dims_strategy, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_executor_matches_eager(self, ops, dims, fuse):
        graph, eager = record_random(ops, dims)
        env = execute_graph(
            graph,
            {v.name: _input_array(v, dims) for v in graph.graph_inputs()},
        )
        final = graph.nodes[-1].output
        np.testing.assert_allclose(env[final], eager, rtol=1e-4, atol=1e-5)


def _input_array(value, dims):
    rng = np.random.default_rng(12345)
    rows, inner, cols = dims
    a = rng.normal(size=(rows, inner)).astype(np.float32)
    b = rng.normal(size=(inner, cols)).astype(np.float32)
    return a if value.name == "a" else b


class TestSchedulerPolicyInvariants:
    @given(program_strategy, dims_strategy,
           st.sampled_from(["inorder", "reorder", "lookahead"]),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_every_policy_emits_a_valid_order(self, ops, dims, policy,
                                              sliced):
        """All three issue policies emit a dependency-respecting
        permutation, with or without TPC slicing, and never overlap an
        engine with itself."""
        graph, _ = record_random(ops, dims)
        options = (CompilerOptions(tpc_slice_ops=True, tpc_slice_min_us=0.0)
                   if sliced else CompilerOptions())
        schedule = GraphCompiler(options=options).compile(graph)
        result = Runtime(GaudiDevice()).execute(schedule, scheduler=policy)
        order = list(result.issue_order)
        assert sorted(order) == list(range(len(schedule.ops)))
        position = {idx: pos for pos, idx in enumerate(order)}
        for op in schedule.ops:
            assert all(position[d] < position[op.index] for d in op.deps)
        validate_no_engine_overlap(result.timeline)

    @given(program_strategy, dims_strategy)
    @settings(max_examples=15, deadline=None)
    def test_option_policy_runs_as_named(self, ops, dims):
        """``CompilerOptions.scheduler`` reaches the runtime intact:
        its :meth:`runtime_kwargs` execute the named policy."""
        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler().compile(graph)
        for policy in ("inorder", "reorder", "lookahead"):
            named = Runtime(GaudiDevice()).execute(
                schedule, scheduler=policy
            )
            options = CompilerOptions(scheduler=policy)
            via_options = Runtime(GaudiDevice()).execute(
                schedule, **options.runtime_kwargs()
            )
            assert named.issue_order == via_options.issue_order
            assert named.total_time_us == via_options.total_time_us

    @given(program_strategy, dims_strategy)
    @settings(max_examples=20, deadline=None)
    def test_sliced_numerics_match_eager(self, ops, dims):
        """TPC slicing is a pure scheduling transform: the sliced
        schedule reproduces the eager frontend on every random graph."""
        graph, eager = record_random(ops, dims)
        schedule = GraphCompiler(options=CompilerOptions(
            tpc_slice_ops=True, tpc_slice_min_us=0.0
        )).compile(graph)
        env = execute_schedule(
            schedule,
            {v.name: _input_array(v, dims) for v in graph.graph_inputs()},
        )
        out = env[schedule.graph.nodes[-1].output]
        np.testing.assert_allclose(out, eager, rtol=1e-4, atol=1e-5)


class TestMemoryPlanInvariants:
    @given(program_strategy, dims_strategy, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_peak_bounds(self, ops, dims, fuse):
        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler(
            options=CompilerOptions(fuse_elementwise=fuse)
        ).compile(graph)
        plan = schedule.memory
        assert plan.peak_bytes >= plan.persistent_bytes
        lowered = schedule.graph  # compilation rewrites value ids
        biggest = max(
            (lowered.value(vid).nbytes
             for op in schedule.ops for vid in op.writes),
            default=0,
        )
        assert plan.peak_bytes >= biggest

    @given(program_strategy, dims_strategy, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_memory_timeline_agrees_with_planner(self, ops, dims, fuse):
        from repro.synapse import memory_timeline

        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler(
            options=CompilerOptions(fuse_elementwise=fuse)
        ).compile(graph)
        tl = memory_timeline(schedule)
        assert tl.peak_bytes == schedule.memory.peak_bytes
        assert all(s.live_bytes >= tl.persistent_bytes for s in tl.samples)

    @given(program_strategy, dims_strategy)
    @settings(max_examples=20, deadline=None)
    def test_fusion_never_increases_peak(self, ops, dims):
        graph, _ = record_random(ops, dims)
        fused = GraphCompiler(
            options=CompilerOptions(fuse_elementwise=True)
        ).compile(graph)
        unfused = GraphCompiler(
            options=CompilerOptions(fuse_elementwise=False)
        ).compile(graph)
        assert fused.memory.peak_bytes <= unfused.memory.peak_bytes
