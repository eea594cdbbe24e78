"""Tests: energy model, DOT export, and runtime/device consistency."""

import pytest

from repro import ht
from repro.ht import functional as F
from repro.core import run_energy_study
from repro.hw import (
    EnergyBreakdown,
    EnergyConfig,
    GaudiDevice,
    joules_per_token,
    schedule_energy,
)
from repro.synapse import (
    GraphCompiler,
    Runtime,
    graph_to_dot,
    schedule_to_dot,
)
from repro.util.errors import ConfigError


def attention_schedule():
    with ht.record("attn", mode="symbolic") as rec:
        a = ht.input_tensor((128, 128), name="a")
        b = ht.input_tensor((128, 128), name="b")
        F.matmul(F.softmax(F.matmul(a, b)), b)
    return rec, GraphCompiler().compile(rec.graph)


class TestEnergyModel:
    def test_components_positive(self):
        _, schedule = attention_schedule()
        e = schedule_energy(schedule, makespan_us=1000.0)
        assert e.mme_joules > 0
        assert e.tpc_joules > 0
        assert e.hbm_joules > 0
        assert e.static_joules == pytest.approx(100.0 * 1e-3)  # 100 W x 1 ms
        assert e.total_joules == pytest.approx(
            e.mme_joules + e.tpc_joules + e.hbm_joules + e.dma_joules
            + e.static_joules
        )

    def test_zero_idle_power(self):
        _, schedule = attention_schedule()
        e = schedule_energy(schedule, 1000.0, EnergyConfig(idle_watts=0.0))
        assert e.static_joules == 0.0

    def test_energy_scales_with_constants(self):
        _, schedule = attention_schedule()
        base = schedule_energy(schedule, 0.0)
        double = schedule_energy(
            schedule, 0.0, EnergyConfig(mme_pj_per_flop=1.6)
        )
        assert double.mme_joules == pytest.approx(2 * base.mme_joules)

    def test_joules_per_token(self):
        b = EnergyBreakdown(1.0, 1.0, 1.0, 0.0, 1.0)
        assert joules_per_token(b, 4) == pytest.approx(1.0)
        with pytest.raises(ConfigError):
            joules_per_token(b, 0)

    def test_negative_constants_rejected(self):
        with pytest.raises(ConfigError):
            EnergyConfig(hbm_pj_per_byte=-1.0)
        _, schedule = attention_schedule()
        with pytest.raises(ConfigError):
            schedule_energy(schedule, -1.0)

    def test_dominant(self):
        b = EnergyBreakdown(5.0, 1.0, 2.0, 0.1, 99.0)
        assert b.dominant() == "mme"  # static excluded by design


class TestEnergyStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_energy_study()

    def test_checks_pass(self, result):
        failed = [str(c) for c in result.checks() if not c.passed]
        assert not failed, failed

    def test_linear_cheapest(self, result):
        joules = {v: result.joules(v) for v in result.variants}
        assert min(joules, key=joules.get) == "linear"

    def test_pipelined_same_arithmetic_less_total(self, result):
        soft = result.breakdowns["softmax"]
        pipe = result.breakdowns["pipelined"]
        # same math -> nearly equal MME arithmetic energy
        assert pipe.mme_joules == pytest.approx(soft.mme_joules, rel=0.05)
        assert result.joules("pipelined") < result.joules("softmax")

    def test_render(self, result):
        assert "mJ/token" in result.render()


class TestDotExport:
    def test_graph_dot_structure(self):
        rec, _ = attention_schedule()
        dot = graph_to_dot(rec.graph)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "matmul" in dot and "->" in dot
        # engine colors present
        assert "#8ecae6" in dot and "#ffb703" in dot

    def test_schedule_dot_has_dma_diamonds(self):
        _, schedule = attention_schedule()
        dot = schedule_to_dot(schedule)
        assert "diamond" in dot
        assert "digraph" in dot

    def test_truncation(self):
        with ht.record("big", mode="symbolic") as rec:
            x = ht.input_tensor((8,), name="x")
            for _ in range(30):
                x = F.exp(x)
        dot = graph_to_dot(rec.graph, max_nodes=5)
        assert "more nodes" in dot

    def test_quotes_escaped(self):
        with ht.record('we"ird', mode="symbolic") as rec:
            ht.input_tensor((2,), name="x")
        dot = graph_to_dot(rec.graph)
        assert '\\"' in dot


class TestRuntimeDeviceConsistency:
    """The device clock and the trace must agree."""

    def test_device_clock_matches_trace_end(self):
        _, schedule = attention_schedule()
        device = GaudiDevice()
        result = Runtime(device).execute(schedule)
        assert device.now == pytest.approx(
            max(ev.end_us for ev in result.timeline.events)
        )
