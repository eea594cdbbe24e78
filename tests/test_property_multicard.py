"""Property-based tests: multi-card runtime invariants.

Random tiny training steps (varying width/depth) compiled with
collective injection at random bucket sizes, executed across random
HLS-1 populations. The properties pin the contracts the A4/A12
extensions rely on:

* engines never run two ops at once on any single card;
* a 1-card HLS-1 replay is byte-identical to the single-card Runtime;
* adding cards never makes the step faster than one card, and never
  slower than serializing compute plus every bucket's analytic
  all-reduce;
* exposed communication is non-negative and bounded by the card's
  total NIC busy time.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro import ht
from repro.ht import functional as F
from repro.hw.config import HLS1Config
from repro.hw.costmodel import EngineKind
from repro.hw.device import GaudiDevice, HLS1Device
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    HLS1Runtime,
    Runtime,
    validate_no_engine_overlap,
)
from repro.synapse.runtime import collective_plans


def record_step(width, depth, batch):
    lins = [ht.Linear(width, width, materialize=False) for _ in range(depth)]
    with ht.record("prop-train", mode="symbolic") as rec:
        h = ht.input_tensor((batch, width), name="x")
        for lin in lins:
            h = F.relu(lin(h))
        loss = F.mean(h)
        loss.backward()
        params = [p for lin in lins for p in lin.parameters()]
        ht.SGD(params, lr=0.01).step()
    return rec.graph


def compile_step(graph, bucket_mb, overlap):
    options = dataclasses.replace(
        CompilerOptions(),
        inject_collectives=True,
        bucket_mb=bucket_mb,
        comm_overlap=overlap,
    )
    return GraphCompiler(options=options).compile(graph)


width_st = st.integers(4, 24)
depth_st = st.integers(1, 3)
batch_st = st.integers(2, 6)
cards_st = st.sampled_from([1, 2, 4, 8])
bucket_st = st.sampled_from([0.001, 0.01, 25.0])


class TestMultiCardProperties:
    @given(width_st, depth_st, batch_st, cards_st, bucket_st, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_no_engine_overlap_any_population(
        self, width, depth, batch, cards, bucket_mb, overlap
    ):
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb, overlap)
        system = HLS1Device(HLS1Config(num_cards=cards))
        result = HLS1Runtime(system).execute(schedule)
        validate_no_engine_overlap(result.timeline)
        # symmetric replay: every card traces every scheduled op
        for c in range(cards):
            on_card = [
                ev for ev in result.timeline.events if ev.card == c
            ]
            assert len(on_card) == len(schedule.ops)

    @given(width_st, depth_st, batch_st, bucket_st)
    @settings(max_examples=15, deadline=None)
    def test_one_card_is_byte_identical(self, width, depth, batch, bucket_mb):
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb, True)
        r_hls = HLS1Runtime(
            HLS1Device(HLS1Config(num_cards=1))
        ).execute(schedule)
        r_one = Runtime(GaudiDevice()).execute(schedule)
        key = lambda ev: (ev.name, ev.engine.value, ev.start_us, ev.dur_us)
        assert (
            sorted(map(key, r_hls.timeline.events))
            == sorted(map(key, r_one.timeline.events))
        )

    @given(width_st, depth_st, batch_st, cards_st, bucket_st, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_step_time_bounds(
        self, width, depth, batch, cards, bucket_mb, overlap
    ):
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb, overlap)
        single = Runtime(GaudiDevice()).execute(schedule).total_time_us
        system = HLS1Device(HLS1Config(num_cards=cards))
        result = HLS1Runtime(system).execute(schedule)
        assert result.total_time_us >= single - 1e-9
        # worst case: compute, then every bucket's ring fully serial
        plans = collective_plans(schedule, cards, HLS1Config().interconnect)
        serial_comm = sum(p.analytic_time_us for p in plans.values())
        assert result.total_time_us <= single + serial_comm + 1e-6

    @given(width_st, depth_st, batch_st, cards_st, bucket_st)
    @settings(max_examples=15, deadline=None)
    def test_exposed_comm_bounded_by_nic_busy(
        self, width, depth, batch, cards, bucket_mb
    ):
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb, True)
        system = HLS1Device(HLS1Config(num_cards=cards))
        result = HLS1Runtime(system).execute(schedule)
        nic_busy = sum(
            ev.dur_us for ev in result.timeline.events
            if ev.engine is EngineKind.NIC and ev.card == 0
        )
        assert 0.0 <= result.exposed_comm_us <= nic_busy + 1e-9
