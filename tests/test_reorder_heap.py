"""The reorder planner's lazy min-heap vs the reference O(n²) scan.

The heap keys entries on ``(earliest start, program order)`` computed
against engine-free times at push. Free times only grow, so stored
keys are lower bounds: popping the min, recomputing, and re-pushing
when stale must select exactly the op the exhaustive ready-set scan
selects — same issue order, hence byte-identical timelines.
"""

from hypothesis import given, settings

from repro import ht
from repro.ht import functional as F
from repro.hw.device import GaudiDevice
from repro.synapse import GraphCompiler, Runtime
from repro.synapse.runtime import (
    _dep_graph,
    _plan_reorder,
    _replay_symmetric,
    op_duration_us,
)
from repro.util.errors import ExecutionError
from tests.test_property_compiler_runtime import (
    dims_strategy,
    program_strategy,
    record_random,
)


def _plan_reorder_scan(
    schedule, durations: list[float], t0: float
) -> list[int]:
    """Reference O(n²) planner (the pre-heap implementation).

    Scans the whole ready set at every issue decision for the minimum
    ``(earliest start, index)`` key; the heap planner must reproduce
    its selection byte for byte.
    """
    n = len(schedule.ops)
    consumers_of, blocked_by = _dep_graph(schedule)
    free = {op.engine: t0 for op in schedule.ops}
    finish: dict[int, float] = {}
    ready_time = {i: t0 for i in range(n) if blocked_by[i] == 0}
    order: list[int] = []
    while len(order) < n:
        best: tuple[float, int] | None = None
        for idx, r in ready_time.items():
            op = schedule.ops[idx]
            key = (max(r, free[op.engine]), idx)
            if best is None or key < best:
                best = key
        if best is None:
            raise ExecutionError(
                "deadlock: no ready ops but schedule incomplete "
                "(cyclic dependencies?)"
            )
        _, idx = best
        op = schedule.ops[idx]
        start = max(ready_time.pop(idx), free[op.engine])
        finish[idx] = start + durations[idx]
        free[op.engine] = finish[idx]
        order.append(idx)
        for consumer in consumers_of[idx]:
            blocked_by[consumer] -= 1
            if blocked_by[consumer] == 0:
                ready_time[consumer] = max(
                    (finish[d] for d in schedule.ops[consumer].deps),
                    default=t0,
                )
    return order


def _plan_both(schedule):
    runtime = Runtime(GaudiDevice())
    durations = [
        op_duration_us(runtime.device.cost_model, op) for op in schedule.ops
    ]
    t0 = runtime.device.now
    heap = _plan_reorder(schedule, durations, t0, *_dep_graph(schedule))
    scan = _plan_reorder_scan(schedule, durations, t0)
    return heap, scan


def _performer_schedule():
    from repro.models import TransformerLayer, paper_layer_config

    layer_cfg = paper_layer_config("performer")
    layer = TransformerLayer(layer_cfg, materialize=False)
    with ht.record("perf-heap", mode="symbolic") as rec:
        layer(ht.input_tensor((8, 512, layer_cfg.d_model), name="x"))
    return GraphCompiler().compile(rec.graph)


class TestHeapMatchesScan:
    @given(program_strategy, dims_strategy)
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_same_order(self, ops, dims):
        graph, _ = record_random(ops, dims)
        schedule = GraphCompiler().compile(graph)
        heap, scan = _plan_both(schedule)
        assert heap == scan

    def test_performer_layer_same_order(self):
        """The A1 benchmark workload: the order (and therefore the
        replayed timeline) is identical, not merely equivalent."""
        schedule = _performer_schedule()
        assert len(schedule.ops) > 30
        heap, scan = _plan_both(schedule)
        assert heap == scan

    def test_performer_timeline_byte_identical(self):
        schedule = _performer_schedule()
        runtime = Runtime(GaudiDevice())
        durations = [
            op_duration_us(runtime.device.cost_model, op)
            for op in schedule.ops
        ]
        t0 = runtime.device.now
        scan_order = _plan_reorder_scan(schedule, durations, t0)
        want, _ = _replay_symmetric(1, schedule, scan_order, durations, t0)
        got = Runtime(GaudiDevice()).execute(
            schedule, scheduler="reorder", hbm_contention=False
        ).timeline.events
        assert [
            (ev.name, ev.engine, ev.start_us, ev.dur_us) for ev in got
        ] == [
            (ev.name, ev.engine, ev.start_us, ev.dur_us) for ev in want
        ]

    def test_planned_order_is_valid_topologically(self):
        schedule = _performer_schedule()
        heap, _ = _plan_both(schedule)
        position = {idx: pos for pos, idx in enumerate(heap)}
        assert sorted(heap) == list(range(len(schedule.ops)))
        for op in schedule.ops:
            for dep in op.deps:
                assert position[dep] < position[op.index]
