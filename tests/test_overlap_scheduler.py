"""The A13 overlap machinery: TPC slicing, scheduler policies, lint.

The ``tpc_slicing`` pass must only fire when asked, must keep numerics
byte-identical, and must leave a graph the ``slice-reassembly`` lint
rule can certify. The runtime's ``scheduler=`` policies must replay
the planners they name, reject unknown names, and the lookahead
planner must never lose to program order on the sliced
attention block it exists to accelerate.
"""

import numpy as np
import pytest

from repro import ht
from repro.ht import functional as F
from repro.hw.costmodel import EngineKind
from repro.hw.device import GaudiDevice
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    Runtime,
    execute_schedule,
    lint_graph,
)
from repro.synapse.runtime import _dep_graph, _plan_reorder, op_duration_us
from repro.util.errors import ExecutionError

#: slicing forced on regardless of the cost model's profitability bar
SLICE_ON = CompilerOptions(tpc_slice_ops=True, tpc_slice_min_us=0.0)


def record_attention(batch=4, rows=16, inner=8):
    """A concrete QK^T -> scale -> softmax -> AV block (the Fig. 4
    shape in miniature); returns (graph, input arrays, eager output)."""
    rng = np.random.default_rng(7)
    arrays = {
        "q": rng.normal(size=(batch, rows, inner)).astype(np.float32),
        "k": rng.normal(size=(batch, inner, rows)).astype(np.float32),
        "v": rng.normal(size=(batch, rows, inner)).astype(np.float32),
    }
    with ht.record("attn-slice", mode="concrete") as rec:
        q = ht.tensor(arrays["q"], name="q")
        k = ht.tensor(arrays["k"], name="k")
        v = ht.tensor(arrays["v"], name="v")
        scores = F.mul_scalar(F.matmul(q, k), 0.125)
        out = F.matmul(F.softmax(scores, axis=-1), v)
        eager = out.numpy()
    return rec.graph, arrays, eager


class TestTpcSlicingPass:
    def test_off_by_default(self):
        graph, _, _ = record_attention()
        schedule = GraphCompiler().compile(graph)
        assert schedule.stats["overlap"]["slices_created"] == 0
        assert not any(
            n.op == "assemble_rows" for n in schedule.graph.nodes
        )

    def test_slices_the_softmax_chain(self):
        graph, _, _ = record_attention()
        schedule = GraphCompiler(options=SLICE_ON).compile(graph)
        overlap = schedule.stats["overlap"]
        assert overlap["sliced_chains"] >= 1
        assert overlap["slices_created"] >= 2
        ops = [n.op for n in schedule.graph.nodes]
        assert "assemble_rows" in ops
        assert "slice_rows" in ops

    def test_numerics_byte_identical(self):
        graph, arrays, eager = record_attention()
        schedule = GraphCompiler(options=SLICE_ON).compile(graph)
        env = execute_schedule(schedule, arrays)
        out = env[schedule.graph.nodes[-1].output]
        assert np.array_equal(out, eager)

    def test_min_us_gate_skips_cheap_chains(self):
        graph, _, _ = record_attention()
        options = CompilerOptions(tpc_slice_ops=True, tpc_slice_min_us=1e9)
        schedule = GraphCompiler(options=options).compile(graph)
        assert schedule.stats["overlap"]["slices_created"] == 0

    def test_odd_row_count_not_sliced(self):
        # 7 rows has no divisor k in [2, 8] with blocks >= 2 rows
        graph, arrays, eager = record_attention(rows=7)
        schedule = GraphCompiler(options=SLICE_ON).compile(graph)
        assert schedule.stats["overlap"]["slices_created"] == 0
        env = execute_schedule(schedule, arrays)
        out = env[schedule.graph.nodes[-1].output]
        assert np.array_equal(out, eager)


class TestSliceReassemblyLint:
    def test_clean_on_sliced_graph(self):
        graph, _, _ = record_attention()
        schedule = GraphCompiler(options=SLICE_ON).compile(graph)
        findings = [
            w for w in lint_graph(schedule.graph)
            if w.rule == "slice-reassembly"
        ]
        assert findings == []

    def test_flags_broken_tiling(self):
        graph, _, _ = record_attention()
        schedule = GraphCompiler(options=SLICE_ON).compile(graph)
        sliced = schedule.graph
        victim = next(n for n in sliced.nodes if n.op == "slice_rows")
        victim.attrs["hi"] -= 1  # window no longer matches its branch
        findings = [
            w for w in lint_graph(sliced)
            if w.rule == "slice-reassembly"
        ]
        assert findings


class TestSchedulerPolicies:
    def _schedule(self, options=None):
        graph, _, _ = record_attention(batch=8, rows=64, inner=16)
        compiler = GraphCompiler(options=options or CompilerOptions())
        return compiler.compile(graph)

    def test_options_default_policy_is_inorder(self):
        assert CompilerOptions().scheduler == "inorder"

    def test_explicit_reorder_matches_legacy_greedy(self):
        schedule = self._schedule(SLICE_ON)
        runtime = Runtime(GaudiDevice())
        cost = runtime.device.cost_model
        durations = [op_duration_us(cost, op) for op in schedule.ops]
        greedy = _plan_reorder(
            schedule, durations, 0.0, *_dep_graph(schedule)
        )
        new = runtime.execute(schedule, scheduler="reorder")
        assert list(new.issue_order) == greedy
        assert new.issue_order != [op.index for op in schedule.ops]

    def test_explicit_inorder_matches_legacy_default(self):
        schedule = self._schedule()
        new = Runtime(GaudiDevice()).execute(schedule, scheduler="inorder")
        old = Runtime(GaudiDevice()).execute(schedule)
        assert list(new.issue_order) == list(old.issue_order)
        assert new.total_time_us == pytest.approx(old.total_time_us)

    def test_unknown_scheduler_raises(self):
        schedule = self._schedule()
        with pytest.raises(ExecutionError):
            Runtime(GaudiDevice()).execute(schedule, scheduler="priority")

    def test_lookahead_never_loses_on_sliced_attention(self):
        schedule = self._schedule(SLICE_ON)
        assert schedule.stats["overlap"]["slices_created"] >= 2
        t_look = Runtime(GaudiDevice()).execute(
            schedule, scheduler="lookahead"
        ).total_time_us
        t_in = Runtime(GaudiDevice()).execute(
            schedule, scheduler="inorder"
        ).total_time_us
        assert t_look <= t_in * 1.001

    def test_policies_respect_dependencies(self):
        schedule = self._schedule(SLICE_ON)
        for policy in ("inorder", "reorder", "lookahead"):
            result = Runtime(GaudiDevice()).execute(
                schedule, scheduler=policy
            )
            order = list(result.issue_order)
            assert sorted(order) == list(range(len(schedule.ops)))
            position = {idx: pos for pos, idx in enumerate(order)}
            for op in schedule.ops:
                assert all(
                    position[d] < position[op.index] for d in op.deps
                ), f"{policy} violates deps of {op.label}"


class TestIdleHorizon:
    def _timeline(self):
        graph, _, _ = record_attention(batch=8, rows=64, inner=16)
        schedule = GraphCompiler().compile(graph)
        return Runtime(GaudiDevice()).execute(schedule).timeline

    def test_last_compute_never_exceeds_makespan_idle(self):
        tl = self._timeline()
        assert (
            tl.idle_us(EngineKind.MME, until="last_compute")
            <= tl.idle_us(EngineKind.MME, until="makespan") + 1e-9
        )

    def test_idle_fraction_bounded(self):
        tl = self._timeline()
        for until in ("makespan", "last_compute"):
            frac = tl.idle_fraction(EngineKind.MME, until=until)
            assert 0.0 <= frac <= 1.0

    def test_unknown_horizon_raises(self):
        tl = self._timeline()
        with pytest.raises(ExecutionError):
            tl.idle_us(EngineKind.MME, until="finish")
