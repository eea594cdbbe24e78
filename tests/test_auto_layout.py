"""A16 layout pricing: the runtime options reach every priced execute."""

import pytest

from repro.core.auto_layout import LayoutPlanner, ParallelLayout
from repro.core.e2e_llm import record_training_step
from repro.hw.config import HLS1Config
from repro.hw.device import HLS1Device
from repro.synapse import CompilerOptions, GraphCompiler
from repro.synapse.runtime import HLS1Runtime

LAYOUT = ParallelLayout(dp=2)
BATCH, SEQ = 2, 64


def _direct_step_us(**runtime_kwargs):
    """The layout's step time, compiled and executed by hand."""
    options = CompilerOptions(inject_collectives=True)
    graph = record_training_step("gpt", batch=BATCH, seq_len=SEQ).graph
    schedule = GraphCompiler(options=options).compile(graph)
    system = HLS1Device(HLS1Config(num_cards=LAYOUT.total_cards))
    return HLS1Runtime(system).execute(
        schedule, **runtime_kwargs
    ).total_time_us


def _priced_step_us(**overrides):
    planner = LayoutPlanner(
        "gpt", batch=BATCH, seq_len=SEQ,
        options=CompilerOptions(**overrides),
    )
    return planner.price(LAYOUT).step_time_us


@pytest.mark.parametrize("overrides", [
    {},
    {"hbm_contention": False},
    {"scheduler": "lookahead"},
])
def test_price_honours_runtime_options(overrides):
    want = _direct_step_us(**overrides)
    assert _priced_step_us(**overrides) == want
    if overrides:
        assert want != _direct_step_us()
