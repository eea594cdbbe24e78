"""Shared-HBM bandwidth contention: arbiter, cost split, runtime.

Covers the contended memory model end to end:

* :class:`BandwidthArbiter` — water-filled equal shares, per-drainer
  rate caps, the aggregate-rate invariant, completion accounting;
* :class:`CostParts` — recomposing the compute/memory split at full
  bandwidth reproduces the closed-form op durations bit for bit;
* fused-chain traffic — every member's chain-external reads are
  charged (the undercount regression);
* the contended runtime — single ops are unchanged, overlapping
  memory-bound phases stall, ``shared=False`` reproduces the
  uncontended timeline through the fluid event machinery, and the
  ``hbm_contention=False`` toggle replays the legacy path.
"""

import math

import numpy as np
import pytest

from repro import ht
from repro.ht import functional as F
from repro.hw import BandwidthArbiter, EngineKind
from repro.hw.device import GaudiDevice
from repro.hw.dtypes import itemsize
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    Runtime,
    SynapseProfiler,
    fused_chain_traffic_bytes,
    op_cost_parts,
    op_duration_us,
)
from repro.util.errors import ExecutionError
from tests.fluid_reference import _fluid_execute

BW = 1e12  # 1 TB/s for round numbers


# -- the arbiter --------------------------------------------------------------


class TestBandwidthArbiter:
    def test_single_drainer_gets_full_bandwidth(self):
        arb = BandwidthArbiter(BW)
        arb.admit(0, 1e9, 0.0)
        assert arb.allocation(0) == BW

    def test_equal_shares_when_uncapped(self):
        arb = BandwidthArbiter(BW)
        arb.admit(0, 1e9, 0.0)
        arb.admit(1, 1e9, 0.0)
        assert arb.allocation(0) == pytest.approx(BW / 2)
        assert arb.allocation(1) == pytest.approx(BW / 2)
        assert arb.total_rate() == pytest.approx(BW)

    def test_cap_redistributes_to_uncapped(self):
        arb = BandwidthArbiter(BW)
        arb.admit(0, 1e9, 0.0, rate_cap=BW / 10)
        arb.admit(1, 1e9, 0.0)
        assert arb.allocation(0) == pytest.approx(BW / 10)
        assert arb.allocation(1) == pytest.approx(BW * 9 / 10)

    def test_caps_bound_total_rate(self):
        arb = BandwidthArbiter(BW)
        arb.admit(0, 1e9, 0.0, rate_cap=BW / 10)
        arb.admit(1, 1e9, 0.0, rate_cap=BW / 5)
        assert arb.total_rate() == pytest.approx(BW / 10 + BW / 5)

    def test_completion_frees_share(self):
        arb = BandwidthArbiter(BW)
        arb.admit(0, 1e6, 0.0)          # drains in 2 us at half rate
        arb.admit(1, 1e9, 0.0)
        done = arb.advance(arb.next_completion_us())
        assert done == [0]
        assert arb.allocation(1) == BW  # freed share flows back

    def test_achieved_bandwidth_of_completed(self):
        arb = BandwidthArbiter(BW)
        arb.admit(0, 1e6, 0.0)
        arb.advance(arb.next_completion_us())
        assert arb.achieved_bandwidth(0) == pytest.approx(BW, rel=1e-6)

    def test_rate_log_never_exceeds_bandwidth(self):
        arb = BandwidthArbiter(BW)
        t = 0.0
        for i, (byts, cap) in enumerate(
            [(1e6, math.inf), (5e6, BW / 4), (2e6, math.inf), (1e7, BW / 2)]
        ):
            arb.admit(i, byts, t, rate_cap=cap)
            t += 0.3
            arb.advance(t)
        while arb.active:
            arb.advance(arb.next_completion_us())
        for seg in arb.rate_log:
            assert seg.total_rate <= BW * (1 + 1e-12)
            assert seg.end_us > seg.start_us

    def test_unshared_mode_ignores_concurrency(self):
        arb = BandwidthArbiter(BW, shared=False)
        arb.admit(0, 1e9, 0.0)
        arb.admit(1, 1e9, 0.0, rate_cap=BW / 4)
        assert arb.allocation(0) == BW
        assert arb.allocation(1) == BW / 4

    def test_admit_rejects_nonpositive_bytes(self):
        arb = BandwidthArbiter(BW)
        with pytest.raises(ExecutionError):
            arb.admit(0, 0.0, 0.0)

    def test_admit_rejects_duplicate_key(self):
        arb = BandwidthArbiter(BW)
        arb.admit(0, 1e6, 0.0)
        with pytest.raises(ExecutionError):
            arb.admit(0, 1e6, 0.1)

    def test_advance_rejects_rewind(self):
        arb = BandwidthArbiter(BW)
        arb.advance(5.0)
        with pytest.raises(ExecutionError):
            arb.advance(4.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ExecutionError):
            BandwidthArbiter(0.0)


# -- the cost split -----------------------------------------------------------


def _compile_layer(**options):
    from repro.models import TransformerLayer, paper_layer_config

    layer_cfg = paper_layer_config("softmax")
    layer = TransformerLayer(layer_cfg, materialize=False)
    with ht.record("parts-layer", mode="symbolic") as rec:
        layer(ht.input_tensor((2, 128, layer_cfg.d_model), name="x"))
    return GraphCompiler(options=CompilerOptions(**options)).compile(rec.graph)


class TestCostParts:
    def test_recomposition_matches_closed_form_exactly(self):
        """max(compute, mem) + serial at full bandwidth IS time_us —
        bit-exact, so the contention-off path cannot drift."""
        schedule = _compile_layer()
        cost = GaudiDevice().cost_model
        bw = cost.config.hbm.effective_bandwidth
        assert len(schedule.ops) > 10
        for op in schedule.ops:
            parts = op_cost_parts(cost, op)
            assert parts.uncontended_time_us(bw) == op_duration_us(cost, op)

    def test_parts_are_nonnegative_and_typed(self):
        schedule = _compile_layer()
        cost = GaudiDevice().cost_model
        for op in schedule.ops:
            parts = op_cost_parts(cost, op)
            assert parts.compute_us >= 0
            assert parts.hbm_bytes >= 0
            assert parts.serial_us >= 0
            assert parts.rate_cap > 0

    def test_dma_ops_are_rate_capped(self):
        schedule = _compile_layer()
        cost = GaudiDevice().cost_model
        dma_link = cost.config.dma.bandwidth_bytes_per_s
        dma_parts = [
            op_cost_parts(cost, op) for op in schedule.ops
            if op.engine is EngineKind.DMA
        ]
        assert dma_parts, "layer should stage DMA transfers"
        assert all(p.rate_cap == dma_link for p in dma_parts)


# -- fused-chain traffic (the undercount regression) --------------------------


class TestFusedChainTraffic:
    def _chain_schedule(self):
        """exp(x) -> add(., y) -> relu: the middle op reads the graph
        input ``y``, which the old accounting silently dropped."""
        with ht.record("chain", mode="concrete") as rec:
            x = ht.tensor(np.ones((64, 64), dtype=np.float32), name="x")
            y = ht.tensor(np.ones((64, 64), dtype=np.float32), name="y")
            F.mean(F.relu(F.add(F.exp(x), y)))
        return GraphCompiler().compile(rec.graph)

    def test_middle_member_external_read_is_charged(self):
        schedule = self._chain_schedule()
        fused = [op for op in schedule.ops if len(op.items) >= 3]
        assert fused, "exp/add/relu should fuse into one chain"
        op = fused[0]
        width = itemsize(schedule.graph.value(op.writes[0]).dtype)
        tensor_bytes = 64 * 64 * width
        # external reads: x (into exp) AND y (into add, mid-chain)
        assert op.external_read_bytes == 2 * tensor_bytes
        traffic = fused_chain_traffic_bytes(op)
        assert traffic == 2 * tensor_bytes + op.items[-1].bytes_written
        # the regression: first.bytes_read counts only x
        undercount = op.items[0].bytes_read + op.items[-1].bytes_written
        assert traffic > undercount

    def test_fallback_for_unannotated_ops(self):
        schedule = self._chain_schedule()
        op = next(op for op in schedule.ops if len(op.items) >= 3)
        import dataclasses
        legacy = dataclasses.replace(op, external_read_bytes=None)
        assert fused_chain_traffic_bytes(legacy) == (
            op.items[0].bytes_read + op.items[-1].bytes_written
        )

    def test_single_op_traffic_unchanged(self):
        schedule = self._chain_schedule()
        singles = [op for op in schedule.ops if len(op.items) == 1
                   and op.engine is not EngineKind.DMA]
        assert singles
        for op in singles:
            assert fused_chain_traffic_bytes(op) == (
                op.items[0].bytes_read + op.items[-1].bytes_written
            )


# -- the contended runtime ----------------------------------------------------


def _record_single_matmul():
    with ht.record("one-matmul", mode="symbolic") as rec:
        a = ht.input_tensor((256, 256), name="a")
        b = ht.input_tensor((256, 256), name="b")
        F.matmul(a, b)
    return rec.graph


def _record_overlap_heavy():
    """Two independent memory-bound streams: a matmul on the MME
    against dominant elementwise traffic on the TPC, no cross-deps —
    the TPC stream is the critical path, so any bandwidth it loses to
    the MME's drain stretches the makespan."""
    with ht.record("overlap", mode="symbolic") as rec:
        a = ht.input_tensor((1024, 1024), name="a")
        b = ht.input_tensor((1024, 1024), name="b")
        c = ht.input_tensor((8192, 8192), name="c")
        d = ht.input_tensor((8192, 8192), name="d")
        F.matmul(a, b)
        F.add(F.add(c, d), c)
    return rec.graph


def _events_key(events):
    return [(ev.name, ev.engine, ev.start_us, ev.dur_us) for ev in events]


class TestContendedRuntime:
    def test_single_op_timing_unchanged(self):
        schedule = GraphCompiler().compile(_record_single_matmul())
        on = Runtime(GaudiDevice()).execute(schedule, hbm_contention=True)
        off = Runtime(GaudiDevice()).execute(schedule, hbm_contention=False)
        assert on.total_time_us == pytest.approx(
            off.total_time_us, rel=1e-12, abs=1e-9
        )
        assert on.contention_stall_us == pytest.approx(0.0, abs=1e-9)

    def test_overlapping_streams_stall(self):
        schedule = GraphCompiler().compile(_record_overlap_heavy())
        on = Runtime(GaudiDevice()).execute(schedule, hbm_contention=True)
        off = Runtime(GaudiDevice()).execute(schedule, hbm_contention=False)
        assert on.contention_stall_us > 0
        assert on.total_time_us > off.total_time_us
        stalled = [
            ev for ev in on.timeline.events if ev.contention_stall_us > 0
        ]
        assert stalled
        # achieved bandwidth is reported for every traffic-bearing op
        assert all(
            ev.hbm_gbps > 0 for ev in on.timeline.events if ev.hbm_bytes > 0
        )

    def test_contention_off_reports_no_stall_fields(self):
        schedule = GraphCompiler().compile(_record_overlap_heavy())
        off = Runtime(GaudiDevice()).execute(schedule, hbm_contention=False)
        assert off.contention_stall_us == 0.0
        assert all(
            ev.contention_stall_us == 0.0 for ev in off.timeline.events
        )

    @pytest.mark.parametrize("recorder", [_record_single_matmul,
                                          _record_overlap_heavy])
    @pytest.mark.parametrize("reorder", [False, True])
    def test_unshared_fluid_matches_legacy_replay(self, recorder, reorder):
        """The fluid event machinery (the scalar reference loop) with
        sharing disabled reproduces the closed-form timeline — the
        toggle's two memory models agree."""
        schedule = GraphCompiler().compile(recorder())
        legacy = Runtime(GaudiDevice()).execute(
            schedule, scheduler="reorder" if reorder else "inorder",
            hbm_contention=False,
        )
        device = GaudiDevice()
        order = list(legacy.issue_order)
        events, stall, _ = _fluid_execute(
            device.cost_model, 1, schedule, order, device.now, shared=False
        )
        assert stall == pytest.approx(0.0, abs=1e-6)
        got = sorted(_events_key(events))
        want = sorted(_events_key(legacy.timeline.events))
        assert len(got) == len(want)
        for (gn, ge, gs, gd), (wn, we, ws, wd) in zip(got, want):
            assert gn == wn and ge is we
            assert gs == pytest.approx(ws, rel=1e-9, abs=1e-6)
            assert gd == pytest.approx(wd, rel=1e-9, abs=1e-6)

    def test_contended_never_faster_with_reorder(self):
        schedule = GraphCompiler().compile(_record_overlap_heavy())
        on = Runtime(GaudiDevice()).execute(
            schedule, scheduler="reorder", hbm_contention=True
        )
        off = Runtime(GaudiDevice()).execute(
            schedule, scheduler="reorder", hbm_contention=False
        )
        assert on.total_time_us >= off.total_time_us * (1 - 1e-12)


# -- profiler surface ---------------------------------------------------------


class TestProfilerContentionMetrics:
    def test_profile_result_aggregates(self):
        profiler = SynapseProfiler()
        res = profiler.profile(_record_overlap_heavy())
        assert res.contention_stall_us > 0
        assert res.contended_op_count > 0
        assert 0 < res.contention_stall_fraction < 1
        assert "HBM contention stall" in res.summary()

    def test_profile_with_contention_off(self):
        profiler = SynapseProfiler(
            options=CompilerOptions(hbm_contention=False)
        )
        res = profiler.profile(_record_overlap_heavy())
        assert res.contention_stall_us == 0.0
        assert res.contended_op_count == 0

    def test_chrome_trace_carries_contention_args(self):
        profiler = SynapseProfiler()
        res = profiler.profile(_record_overlap_heavy())
        import json

        trace = json.loads(res.timeline.to_chrome_trace())
        args = [
            ev["args"] for ev in trace["traceEvents"] if ev.get("args")
        ]
        assert any("contention_stall_us" in a for a in args)
        assert any(a.get("hbm_bytes", 0) > 0 for a in args)


# -- the A11 ablation ---------------------------------------------------------


class TestHbmContentionAblation:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.core import run_hbm_contention_ablation

        return run_hbm_contention_ablation()

    def test_all_checks_pass(self, result):
        for check in result.checks():
            assert check.passed, str(check)

    def test_render_mentions_every_workload(self, result):
        text = result.render()
        assert "A11" in text
        for row in result.rows:
            assert row.name in text

    def test_unknown_row_raises(self, result):
        with pytest.raises(KeyError):
            result.row("nope")

    def test_pipelined_attention_is_most_contended(self, result):
        """The overlap-optimized workload loses the most to sharing —
        the in-depth counterpart of the paper's Fig 6 remark."""
        pipelined = result.row("pipelined attention (A6)")
        assert pipelined.slowdown == max(r.slowdown for r in result.rows)
