"""Bench: simulator-throughput regression gate (scalar vs vector).

The runtime's vectorized fluid loop exists to make sweeps affordable;
this gate keeps it honest. It executes the GPT-2 training step on the
8-card HLS-1 (the heaviest standard trace: DDP collectives + shared
fabric + per-card HBM arbiters) on that loop and on the scalar
reference loop swapped in by :func:`tests.fluid_reference.scalar_loop`,
asserts the traces are byte-identical, then times both in one process
as sequential best-of-N blocks — contiguous runs keep each loop's
working set hot, where alternating loops lets the scalar pass evict
the vector loop's caches and shaves ~10% off its measured throughput —
and holds the result against ``sim_throughput_thresholds.json``:

* ``min_speedup_vs_scalar`` — the vector loop's reason to exist;
* ``baseline_vector_events_per_sec`` x (1 - ``max_regression_fraction``)
  — the absolute floor that catches a slow leak in both loops.

Every run rewrites ``BENCH_sim.json`` at the repo root with the
measured numbers, so the perf trajectory is versioned alongside the
code that produced it.
"""

import contextlib
import dataclasses
import json
import time
from pathlib import Path

from conftest import assert_checks  # noqa: F401  (shared harness import)

from repro.core.e2e_llm import record_training_step
from repro.hw.config import HLS1Config
from repro.hw.device import HLS1Device
from repro.synapse import GraphCompiler, default_compiler_options
from repro.synapse.runtime import HLS1Runtime
from tests.fluid_reference import scalar_loop

THRESHOLDS = json.loads(
    (Path(__file__).parent / "sim_throughput_thresholds.json").read_text()
)
BENCH_PATH = Path(__file__).parent.parent / "BENCH_sim.json"


def _measure() -> dict:
    hls1 = HLS1Config()
    options = dataclasses.replace(
        default_compiler_options(), inject_collectives=True
    )
    schedule = GraphCompiler(hls1.card, options).compile(
        record_training_step("gpt").graph
    )
    system_cfg = dataclasses.replace(hls1, num_cards=8)

    loops = {"scalar": scalar_loop, "vector": contextlib.nullcontext}

    def run(engine):
        with loops[engine]():
            return HLS1Runtime(HLS1Device(system_cfg)).execute(schedule)

    # correctness first (also warms both loops' prep caches): the
    # speedup only counts if the loops agree bit for bit
    scalar, vector = run("scalar"), run("vector")
    assert scalar.timeline.events == vector.timeline.events
    assert scalar.total_time_us == vector.total_time_us
    assert scalar.exposed_comm_us == vector.exposed_comm_us
    assert scalar.fabric_busy_us == vector.fabric_busy_us
    assert scalar.contention_stall_us == vector.contention_stall_us

    best = {"scalar": float("inf"), "vector": float("inf")}
    for engine in best:  # contiguous per-loop blocks (see module doc)
        for _ in range(THRESHOLDS["rounds"]):
            t0 = time.perf_counter()
            run(engine)
            best[engine] = min(best[engine], time.perf_counter() - t0)

    events = len(vector.timeline.events)
    return {
        "workload": "gpt training step, 8-card HLS-1, DDP collectives",
        "events_per_execution": events,
        "scalar": {
            "best_s": round(best["scalar"], 6),
            "events_per_sec": round(events / best["scalar"]),
        },
        "vector": {
            "best_s": round(best["vector"], 6),
            "events_per_sec": round(events / best["vector"]),
        },
        "speedup": round(best["scalar"] / best["vector"], 2),
        "traces_byte_identical": True,
        "thresholds": {
            k: v for k, v in THRESHOLDS.items() if not k.startswith("_")
        },
    }


def test_sim_throughput_regression(benchmark, record_info):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)

    assert result["speedup"] >= THRESHOLDS["min_speedup_vs_scalar"], (
        f"vector loop speedup {result['speedup']}x fell below the "
        f"{THRESHOLDS['min_speedup_vs_scalar']}x gate"
    )
    floor = THRESHOLDS["baseline_vector_events_per_sec"] * (
        1.0 - THRESHOLDS["max_regression_fraction"]
    )
    measured = result["vector"]["events_per_sec"]
    assert measured >= floor, (
        f"vector loop throughput {measured:,} events/s regressed "
        f">{THRESHOLDS['max_regression_fraction']:.0%} below the "
        f"{THRESHOLDS['baseline_vector_events_per_sec']:,} baseline"
    )

    BENCH_PATH.write_text(json.dumps(result, indent=2) + "\n")
    record_info(
        benchmark,
        speedup_vs_scalar=result["speedup"],
        vector_events_per_sec=measured,
        scalar_events_per_sec=result["scalar"]["events_per_sec"],
        events_per_execution=result["events_per_execution"],
    )
    print()
    print(
        f"sim throughput: scalar {result['scalar']['best_s'] * 1e3:.1f} ms"
        f" -> vector {result['vector']['best_s'] * 1e3:.1f} ms"
        f" ({result['speedup']}x, {measured:,} simulated events/s)"
    )
