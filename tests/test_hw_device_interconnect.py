"""Unit tests for repro.hw.device and repro.hw.interconnect."""

import pytest

from repro.hw import (
    InterconnectConfig,
    RingAllReduce,
    data_parallel_step_time_us,
    default_device,
    scaling_efficiency,
)
from repro.hw.interconnect import log2_cards
from repro.util.errors import ConfigError


class TestGaudiDevice:
    def test_fresh_device_clock_zero(self):
        dev = default_device()
        assert dev.now == 0.0

    def test_describe_mentions_engines(self):
        text = default_device().describe()
        assert "MME" in text and "TPC" in text and "HBM" in text


class TestRingAllReduce:
    def test_single_card_free(self):
        cost = RingAllReduce(InterconnectConfig()).cost(1, 10**9)
        assert cost.time_us == 0.0 and cost.steps == 0

    def test_bandwidth_term_dominates_large_payload(self):
        cfg = InterconnectConfig(roce_latency_us=0.0)
        cost = RingAllReduce(cfg).cost(8, 10**9)
        expected = 2 * 7 / 8 * 10**9 / cfg.roce_bandwidth_bytes_per_s * 1e6
        assert cost.time_us == pytest.approx(expected)

    def test_latency_term(self):
        cfg = InterconnectConfig(roce_latency_us=3.0)
        cost = RingAllReduce(cfg).cost(4, 0)
        assert cost.time_us == pytest.approx(2 * 3 * 3.0)

    def test_time_grows_slowly_with_cards(self):
        # (p-1)/p factor: going 2 -> 8 cards less than doubles the
        # bandwidth term.
        ar = RingAllReduce(InterconnectConfig(roce_latency_us=0.0))
        t2 = ar.cost(2, 10**9).time_us
        t8 = ar.cost(8, 10**9).time_us
        assert t2 < t8 < 2 * t2

    def test_invalid_inputs(self):
        ar = RingAllReduce(InterconnectConfig())
        with pytest.raises(ConfigError):
            ar.cost(0, 100)
        with pytest.raises(ConfigError):
            ar.cost(2, -1)


class TestDataParallelStep:
    def test_no_overlap(self):
        cfg = InterconnectConfig(roce_latency_us=0.0)
        comm = RingAllReduce(cfg).cost(8, 10**8).time_us
        total = data_parallel_step_time_us(1000.0, 10**8, 8, cfg)
        assert total == pytest.approx(1000.0 + comm)

    def test_full_overlap_hides_comm_under_compute(self):
        cfg = InterconnectConfig(roce_latency_us=0.0)
        total = data_parallel_step_time_us(
            10_000.0, 10**6, 8, cfg, overlap_fraction=1.0
        )
        assert total == pytest.approx(10_000.0)

    def test_invalid_overlap(self):
        with pytest.raises(ConfigError):
            data_parallel_step_time_us(1.0, 1, 2, InterconnectConfig(),
                                       overlap_fraction=1.5)

    def test_scaling_efficiency(self):
        assert scaling_efficiency(10.0, 12.5, 8) == pytest.approx(0.8)
        with pytest.raises(ConfigError):
            scaling_efficiency(0.0, 1.0, 2)


class TestLog2Cards:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (8, 3)])
    def test_powers_of_two(self, n, expected):
        assert log2_cards(n) == expected

    @pytest.mark.parametrize("bad", [0, 3, 6, -4])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ConfigError):
            log2_cards(bad)
