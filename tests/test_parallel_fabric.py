"""The hierarchical multi-box fabric: TwoTierFabric + two-tier plans.

PR-8's tentpole contract, from the wire up:

* :class:`~repro.hw.bandwidth.TwoTierFabric` routes intra-box traffic
  through one shared pool and inter-box traffic through a second,
  independent pool — tiers never contend with each other, and
  ``busy_us`` is the interval *union* (overlap counted once);
* intra-only traffic through the two-tier fabric drains exactly as it
  would through the flat :class:`~repro.hw.bandwidth.BandwidthArbiter`;
* :func:`~repro.hw.interconnect.hierarchical_collective_plan` with
  ``boxes=1`` returns the flat plan *verbatim* (FP arithmetic is not
  associative — only the identical plan replays byte-identically), and
  with ``boxes>1`` its analytic time is exactly the replayed step sum;
* at the runtime layer, ``boxes=1`` populations trace byte-identically
  to the flat HLS-1 runtime, and the fluid loop stays bit-for-bit
  equal to the scalar reference loop on multi-box populations
  (hypothesis properties).
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro import ht
from repro.ht import functional as F
from repro.hw.bandwidth import BandwidthArbiter, TwoTierFabric
from repro.hw.config import HLS1Config, InterconnectConfig
from repro.hw.device import HLS1Device
from repro.hw.interconnect import (
    collective_plan,
    hierarchical_collective_plan,
    p2p_plan,
    scale_plan,
)
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    HLS1Runtime,
)
from repro.synapse.runtime import collective_plans
from tests.fluid_reference import scalar_loop

CFG = InterconnectConfig()
GIB = float(1 << 30)


def record_step(width, depth, batch):
    lins = [ht.Linear(width, width, materialize=False) for _ in range(depth)]
    with ht.record("fabric-prop", mode="symbolic") as rec:
        h = ht.input_tensor((batch, width), name="x")
        for lin in lins:
            h = F.relu(lin(h))
        loss = F.mean(h)
        loss.backward()
        params = [p for lin in lins for p in lin.parameters()]
        ht.SGD(params, lr=0.01).step()
    return rec.graph


def compile_step(graph, bucket_mb=25.0, **overrides):
    options = dataclasses.replace(
        CompilerOptions(),
        inject_collectives=True,
        bucket_mb=bucket_mb,
        **overrides,
    )
    return GraphCompiler(options=options).compile(graph)


def drain_all(pool):
    """Run a fabric/arbiter to quiescence; completion (key, time) list."""
    done = []
    while pool.active:
        t, keys = pool.drain_until([])
        done.extend((k, t) for k in sorted(keys))
    return done


class TestTwoTierFabric:
    def test_intra_tier_matches_flat_arbiter(self):
        """Intra-only traffic is byte-identical to the flat pool."""
        flat = BandwidthArbiter(10 * GIB, shared=True)
        two = TwoTierFabric(10 * GIB, 1 * GIB)
        for pool in (flat, two):
            pool.admit(1, 4 * GIB, 0.0)
            pool.admit(2, 2 * GIB, 100.0)
        assert drain_all(flat) == drain_all(two)
        flat_busy = sum(
            seg.end_us - seg.start_us for seg in flat.rate_log
            if seg.total_rate > 0
        )
        assert two.busy_us() == flat_busy

    def test_tiers_do_not_contend(self):
        """One drainer per tier: each gets its full pool bandwidth."""
        two = TwoTierFabric(10 * GIB, 10 * GIB)
        two.admit(1, 10 * GIB, 0.0)
        two.admit(2, 10 * GIB, 0.0, tier="inter")
        done = dict(drain_all(two))
        # both finish in 1 s; sharing one pool would take 2 s each
        assert done[1] == done[2]
        assert math.isclose(done[1], 1e6)

    def test_busy_us_is_interval_union(self):
        """Concurrent tiers count wall time once, not twice."""
        two = TwoTierFabric(10 * GIB, 10 * GIB)
        two.admit(1, 10 * GIB, 0.0)
        two.admit(2, 10 * GIB, 0.0, tier="inter")
        drain_all(two)
        assert math.isclose(two.busy_us(), 1e6)

    def test_advance_concatenates_completions(self):
        two = TwoTierFabric(10 * GIB, 10 * GIB)
        two.admit(1, 1 * GIB, 0.0)
        two.admit(2, 1 * GIB, 0.0, tier="inter")
        assert sorted(two.advance(1e6)) == [1, 2]
        assert two.active == 0


class TestHierarchicalPlans:
    @given(
        st.sampled_from(["all_reduce", "all_gather", "broadcast",
                         "reduce_scatter"]),
        st.sampled_from([2, 4, 8]),
        st.integers(1, 1 << 24),
    )
    @settings(max_examples=20, deadline=None)
    def test_boxes_one_is_the_flat_plan_verbatim(self, op, cards, payload):
        flat = collective_plan(op, cards, payload, CFG)
        hier = hierarchical_collective_plan(op, 1, cards, payload, CFG)
        assert hier == flat
        assert all(s.tier == "intra" for s in hier.steps)

    @given(
        st.sampled_from(["all_reduce", "all_gather", "broadcast",
                         "reduce_scatter"]),
        st.sampled_from([2, 4, 8]),
        st.sampled_from([2, 4, 8]),
        st.integers(1, 1 << 24),
    )
    @settings(max_examples=20, deadline=None)
    def test_multi_box_analytic_is_exact_replay_sum(
        self, op, boxes, cards, payload
    ):
        plan = hierarchical_collective_plan(op, boxes, cards, payload, CFG)
        # satellite (b): the closed form IS the replayed sum — exact
        # equality, not a tolerance band
        assert plan.analytic_time_us == plan.replay_time_us()
        assert any(s.tier == "inter" for s in plan.steps)
        assert plan.inter_rate_cap > 0

    def test_multi_box_is_slower_than_flat(self):
        """Ethernet hops cost more than staying on the in-box links."""
        payload = 64 << 20
        flat = collective_plan("all_reduce", 32, payload, CFG)
        hier = hierarchical_collective_plan("all_reduce", 4, 8, payload, CFG)
        assert hier.analytic_time_us > flat.analytic_time_us

    def test_p2p_plan_tiers(self):
        intra = p2p_plan(1 << 20, CFG)
        inter = p2p_plan(1 << 20, CFG, inter=True)
        assert all(s.tier == "intra" for s in intra.steps)
        assert any(s.tier == "inter" for s in inter.steps)
        assert inter.analytic_time_us > intra.analytic_time_us

    def test_scale_plan_degenerate_is_object_identical(self):
        plan = collective_plan("all_reduce", 4, 1 << 20, CFG)
        assert scale_plan(plan, 1) is plan
        wide = scale_plan(plan, 4)
        assert wide is not plan
        assert wide.analytic_time_us == plan.analytic_time_us


class TestRuntimeBoxesOne:
    """The runtime-level byte-identity half of satellite (c)."""

    width_st = st.integers(4, 24)
    depth_st = st.integers(1, 3)
    batch_st = st.integers(2, 6)
    cards_st = st.sampled_from([2, 4, 8])
    bucket_st = st.sampled_from([0.01, 25.0])

    @staticmethod
    def _trace_key(ev):
        return (ev.name, ev.engine.value, ev.start_us, ev.dur_us, ev.card)

    @given(width_st, depth_st, batch_st, cards_st, bucket_st)
    @settings(max_examples=15, deadline=None)
    def test_boxes_one_trace_byte_identical_to_flat(
        self, width, depth, batch, cards, bucket_mb
    ):
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb)
        flat = HLS1Runtime(
            HLS1Device(HLS1Config(num_cards=cards))
        ).execute(schedule)
        hier = HLS1Runtime(
            HLS1Device(HLS1Config(num_cards=cards, boxes=1))
        ).execute(schedule)
        assert flat.timeline.events == hier.timeline.events
        assert flat.total_time_us == hier.total_time_us
        assert flat.exposed_comm_us == hier.exposed_comm_us
        assert flat.fabric_busy_us == hier.fabric_busy_us

    @given(width_st, depth_st, batch_st, cards_st, bucket_st)
    @settings(max_examples=15, deadline=None)
    def test_collective_plans_boxes_one_identical(
        self, width, depth, batch, cards, bucket_mb
    ):
        schedule = compile_step(record_step(width, depth, batch), bucket_mb)
        flat = collective_plans(schedule, cards, CFG)
        hier = collective_plans(schedule, cards, CFG, boxes=1)
        assert flat == hier

    @given(width_st, depth_st, batch_st,
           st.sampled_from([2, 4]), st.sampled_from([2, 4]), bucket_st)
    @settings(max_examples=10, deadline=None)
    def test_multi_box_engines_byte_identical(
        self, width, depth, batch, boxes, cards, bucket_mb
    ):
        """The fluid loop agrees with the scalar reference on the
        two-tier fabric."""
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb)

        def run():
            system = HLS1Device(HLS1Config(num_cards=cards, boxes=boxes))
            return HLS1Runtime(system).execute(schedule)

        with scalar_loop():
            scalar = run()
        vector = run()
        assert scalar.timeline.events == vector.timeline.events
        assert scalar.total_time_us == vector.total_time_us
        assert scalar.fabric_busy_us == vector.fabric_busy_us

    @given(width_st, depth_st, batch_st, st.sampled_from([2, 4]), bucket_st)
    @settings(max_examples=10, deadline=None)
    def test_multi_box_never_faster_than_single_box(
        self, width, depth, batch, boxes, bucket_mb
    ):
        """Spanning Ethernet can only add communication time."""
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb)
        one = HLS1Runtime(
            HLS1Device(HLS1Config(num_cards=4, boxes=1))
        ).execute(schedule)
        multi = HLS1Runtime(
            HLS1Device(HLS1Config(num_cards=4, boxes=boxes))
        ).execute(schedule)
        assert multi.total_time_us >= one.total_time_us - 1e-9
