"""Property-based tests: the fluid loop is bit-for-bit the scalar one.

The runtime's vectorized event loop is a pure performance rewrite of
the scalar reference loop in :mod:`tests.fluid_reference`: it must
walk the identical global epoch sequence and perform the identical
per-element IEEE-754 arithmetic, differing only in wall-clock cost.
These properties pin that contract over random training steps, card
populations, bucket sizes, and both contention modes: executes with
the reference swapped in (:func:`~tests.fluid_reference.scalar_loop`)
carry *equal* ``TraceEvent`` lists (dataclass ``==`` — every field,
every event, in order) and equal aggregate floats (no tolerance).
"""

from hypothesis import given, settings, strategies as st

from repro.hw.config import HLS1Config
from repro.hw.device import GaudiDevice, HLS1Device
from repro.synapse import GraphCompiler, HLS1Runtime, Runtime
from tests.fluid_reference import scalar_loop
from tests.test_parallel_fabric import compile_step, record_step


def assert_results_identical(r_scalar, r_vector):
    assert r_scalar.timeline.events == r_vector.timeline.events
    assert r_scalar.total_time_us == r_vector.total_time_us
    assert r_scalar.start_offset_us == r_vector.start_offset_us
    assert r_scalar.contention_stall_us == r_vector.contention_stall_us
    assert r_scalar.exposed_comm_us == r_vector.exposed_comm_us
    assert r_scalar.fabric_busy_us == r_vector.fabric_busy_us
    assert r_scalar.issue_order == r_vector.issue_order
    assert r_scalar.num_cards == r_vector.num_cards


width_st = st.integers(4, 24)
depth_st = st.integers(1, 3)
batch_st = st.integers(2, 6)
cards_st = st.sampled_from([1, 2, 4, 8])
bucket_st = st.sampled_from([0.001, 0.01, 25.0])
contention_st = st.booleans()
scheduler_st = st.sampled_from(["inorder", "reorder", "lookahead"])


class TestEngineEquivalenceProperties:
    @given(width_st, depth_st, batch_st, cards_st, bucket_st, contention_st,
           scheduler_st)
    @settings(max_examples=20, deadline=None)
    def test_hls1_trace_streams_byte_identical(
        self, width, depth, batch, cards, bucket_mb, contention, scheduler
    ):
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb)

        def run():
            system = HLS1Device(HLS1Config(num_cards=cards))
            return HLS1Runtime(system).execute(
                schedule, scheduler=scheduler, hbm_contention=contention
            )

        with scalar_loop():
            scalar = run()
        assert_results_identical(scalar, run())

    @given(width_st, depth_st, batch_st, contention_st, scheduler_st)
    @settings(max_examples=20, deadline=None)
    def test_single_card_trace_streams_byte_identical(
        self, width, depth, batch, contention, scheduler
    ):
        schedule = GraphCompiler().compile(record_step(width, depth, batch))

        def run():
            return Runtime(GaudiDevice()).execute(
                schedule, scheduler=scheduler, hbm_contention=contention
            )

        with scalar_loop():
            scalar = run()
        assert_results_identical(scalar, run())
