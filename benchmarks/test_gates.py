"""Regression gates: one driver holds every bound by its name.

Gate ``<name>`` reads ``<name>_thresholds.json`` and its ``measure``
returns ``(measured, payload)``, ``measured`` shaped like the file.
Every ``min_<x>`` / ``max_<x>`` key of a section is held against
``<x>`` in the same section of ``measured``: per key when the bound is
a dict, against every entry when only the measured value is one. A
bound with no measured counterpart fails, so renaming a metric cannot
drop its bound. Checks that are not a floor or a ceiling stay inline.
``payload`` and the thresholds go to ``extra_info`` and, for the gates
that keep a trajectory, to a ``BENCH_*.json`` file at the repo root.
"""

import contextlib
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_checks

from repro.core import (
    run_backend_ablation, run_kernel_pack_ablation, run_memory_ablation,
    run_overlap_scheduler_ablation,
)
from repro.core.auto_layout import run_parallel_study
from repro.core.backend_study import (
    STUDY_BACKENDS, matmul_engine_tflops, tokens_per_second,
)
from repro.core.e2e_llm import record_training_step
from repro.core.kernel_study import (
    exposed_softmax_tpc_us, score_matrix_hbm_bytes,
)
from repro.core.overlap_study import exposed_tpc_us
from repro.core.serving import ServingSimulator, generate_requests
from repro.hw.backend import get_backend
from repro.hw.config import HLS1Config, TPCClusterConfig
from repro.hw.costmodel import EngineKind
from repro.hw.device import HLS1Device
from repro.hw.dtypes import DType
from repro.synapse import CompilerOptions, GraphCompiler
from repro.synapse.runtime import HLS1Runtime
from repro.synapse.serving import ServingRuntime
from repro.tpc.kernels import REGISTRY
from repro.tpc.simulator import TPCSimulator
from repro.util.units import GIB
from tests.fluid_reference import scalar_loop

HERE = Path(__file__).parent


def violations(where: str, bounds: dict, measured: dict) -> list[str]:
    """One message per bound in ``bounds`` that ``measured`` breaks or
    lacks, each naming its dotted path under ``where``."""
    found = []
    for key, bound in bounds.items():
        path = f"{where}.{key}"
        if key.startswith(("min_", "max_")):
            found += _hold(path, key[:3], bound, measured, key[4:])
        elif isinstance(bound, dict) and not key.startswith("_"):
            found += violations(path, bound, measured.get(key, {}))
    return found


def _hold(path, kind, bound, measured, name):
    if name not in measured:
        yield f"{path}: no measured {name!r}"
        return
    value = measured[name]
    if isinstance(bound, dict):
        for key, inner in bound.items():
            yield from _hold(f"{path}.{key}", kind, inner, value, key)
    elif isinstance(value, dict):
        for key in value:
            yield from _hold(f"{path}.{key}", kind, bound, value, key)
    elif not (value >= bound if kind == "min" else value <= bound):
        yield f"{path}: measured {value!r}, bound {bound!r}"


def _column(table: dict, metric: str) -> dict:
    return {key: row[metric] for key, row in table.items()}


def measure_overlap(thresholds):
    """A13: the Fig. 4 softmax layer under lookahead + TPC slicing and
    the Fig. 6 Performer layer under plain lookahead."""
    study = run_overlap_scheduler_ablation()
    assert_checks(study.checks())
    print(study.render())
    sliced = study.profiles["softmax"]["lookahead+slicing"]
    performer = study.profiles["performer"]["lookahead"]
    measured = {
        "softmax_lookahead_slicing": {
            "total_ms": sliced.total_time_ms,
            "mme_idle_ms": study.mme_idle_us(
                "softmax", "lookahead+slicing"
            ) / 1000.0,
            "mme_idle_fraction": sliced.idle_fraction(
                EngineKind.MME, until="last_compute"
            ),
            "idle_reduction_vs_reorder": study.idle_reduction,
        },
        "performer_lookahead": {
            "exposed_exp_ms": exposed_tpc_us(performer, "exp") / 1000.0,
        },
    }
    return measured, measured


def measure_memory(thresholds):
    """A14: GPT/BERT steps at batch 8 -> 32 planned under 32 GiB."""
    study = run_memory_ablation()
    assert_checks(study.checks())
    print(study.render())
    wall = study.row("gpt", 32)
    assert wall.planned_peak_bytes is not None
    assert study.row("gpt", 8).fits_unplanned
    assert study.row("bert", 8).fits_unplanned
    measured = {
        "gpt_batch32_auto": {
            "oracle_peak_gib": wall.oracle_peak_bytes / GIB,
            "planned_peak_gib": wall.planned_peak_bytes / GIB,
            "slowdown": wall.slowdown,
            "spill_ops": wall.spill_ops,
            "recompute_ops": wall.recompute_ops,
        },
        "sweep": {"peak_gib": {
            f"{r.model}@{r.batch}": r.peak_bytes / GIB for r in study.rows
        }},
    }
    return measured, measured


def measure_serving(thresholds):
    """A15: 10k Poisson arrivals at the knee rate under both policies."""
    ref = thresholds["reference"]
    runtime = ServingRuntime()
    sim = ServingSimulator(runtime, max_batch=ref["max_batch"])
    trace = generate_requests(
        ref["num_requests"], ref["rate_per_s"], seed=ref["seed"]
    )
    out = {}
    for policy in ("continuous", "static"):
        t0 = time.perf_counter()
        m = out[policy] = sim.run(trace, policy).metrics()
        m["sim_wall_s"] = round(time.perf_counter() - t0, 3)
        assert (m["completed"] + m["truncated"] + m["rejected"]
                == ref["num_requests"])
    cont, static = out["continuous"], out["static"]
    payload = {
        "workload": f"{ref['num_requests']} Poisson arrivals at "
                    f"{ref['rate_per_s']} req/s, GPT decode, batch "
                    f"{ref['max_batch']}",
        **out,
        "replay_fraction": round(runtime.replay_fraction, 6),
        "measured_geometries": runtime.measured,
    }
    measured = {
        "reference": {
            "tokens_per_s": cont["tokens_per_s"],
            "ttft_p99_ms": cont["ttft_p99_ms"],
            # max_batch sets the scenario; no policy may exceed it
            "batch": max(m["peak_in_flight"] for m in out.values()),
        },
        "policy_gap": {
            "p99_ttft_ratio": static["ttft_p99_ms"] / cont["ttft_p99_ms"],
            "throughput_ratio":
                cont["tokens_per_s"] / static["tokens_per_s"],
        },
        "replay": {"replay_fraction": payload["replay_fraction"]},
    }
    return measured, payload


def measure_sim_throughput(thresholds):
    """P1: the fluid loop vs the scalar reference loop on the GPT
    training step over 8 HLS-1 cards with DDP collectives.

    Each loop is timed as one contiguous best-of-N block: alternating
    the loops lets the scalar pass evict the vector loop's caches and
    shaves ~10% off its measured throughput.
    """
    hls1 = HLS1Config()
    options = dataclasses.replace(
        CompilerOptions(), inject_collectives=True
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
    for attr in ("total_time_us", "exposed_comm_us", "fabric_busy_us",
                 "contention_stall_us"):
        assert getattr(scalar, attr) == getattr(vector, attr), attr

    best = {"scalar": float("inf"), "vector": float("inf")}
    for engine in best:
        for _ in range(thresholds["rounds"]):
            t0 = time.perf_counter()
            run(engine)
            best[engine] = min(best[engine], time.perf_counter() - t0)

    events = len(vector.timeline.events)
    payload = {
        "workload": "gpt training step, 8-card HLS-1, DDP collectives",
        "events_per_execution": events,
        **{
            engine: {
                "best_s": round(s, 6),
                "events_per_sec": round(events / s),
            }
            for engine, s in best.items()
        },
        "speedup": round(best["scalar"] / best["vector"], 2),
        "traces_byte_identical": True,
    }
    rate = payload["vector"]["events_per_sec"]
    measured = {
        "speedup_vs_scalar": payload["speedup"],
        "regression_fraction":
            1.0 - rate / thresholds["baseline_vector_events_per_sec"],
    }
    return measured, payload


def measure_parallel(thresholds):
    """A16: the layout grid at 8/32/64 cards in 8-card boxes."""
    ref = thresholds["reference"]
    counts = ref["card_counts"]
    t0 = time.perf_counter()
    study = run_parallel_study(
        card_counts=tuple(counts),
        batch=ref["batch"],
        seq_len=ref["seq_len"],
        cards_per_box=ref["cards_per_box"],
    )
    wall_s = round(time.perf_counter() - t0, 3)
    models = {}
    for model in sorted({r.model_name for r in study.rows}):
        per_count = models[model] = {}
        for cards in counts:
            rows = [
                r for r in study.rows
                if r.model_name == model and r.num_cards == cards
                and r.feasible
            ]
            best = max(rows, key=lambda r: r.samples_per_s)
            picked = next(r for r in rows if r.picked)
            per_count[str(cards)] = {
                "picked_layout": picked.layout,
                "picked_samples_per_s": round(picked.samples_per_s, 1),
                "best_samples_per_s": round(best.samples_per_s, 1),
                "pick_ratio": round(
                    picked.samples_per_s / best.samples_per_s, 4
                ),
                "efficiency": round(picked.efficiency, 4),
            }
        thr = list(_column(per_count, "picked_samples_per_s").values())
        assert thr == sorted(thr), (
            f"{model} best-layout throughput is not monotone in "
            f"cards: {thr}"
        )
    payload = {
        "workload": f"{'/'.join(models)} training steps, batch "
                    f"{ref['batch']}, seq {ref['seq_len']}, layout grid "
                    f"at {counts} cards in "
                    f"{ref['cards_per_box']}-card boxes",
        "sim_wall_s": wall_s,
        "models": models,
    }
    measured = {
        "efficiency": {
            f"at_{c}_cards": {m: models[m][str(c)]["efficiency"]
                              for m in models}
            for c in counts
        },
        "planner": {"pick_ratio": {
            f"{m}@{c}": models[m][str(c)]["pick_ratio"]
            for m in models for c in counts
        }},
    }
    return measured, payload


def measure_kernel(thresholds):
    """A17: functional launches of the pack kernels, then the Fig. 4
    softmax layer under every attention lowering."""
    shapes = thresholds["kernels"]["shapes"]
    batch, seq, dim = shapes["batch"], shapes["seq_len"], shapes["head_dim"]
    rng = np.random.default_rng(0)
    x, q, k, v = (
        rng.standard_normal(shape).astype(np.float32)
        for shape in [(batch, seq, seq)] + [(batch, seq, dim)] * 3
    )
    qkv = {"q": q, "k": k, "v": v}
    sim = TPCSimulator(TPCClusterConfig(), DType.BF16)
    kernels = {}
    for name, params, inputs in (
        ("fused_softmax", {}, {"x": x}),
        ("windowed_attention", {"window": shapes["window"]}, qkv),
        ("flash_attention", {}, qkv),
    ):
        r = sim.launch(REGISTRY.create(name, **params), inputs)
        kernels[name] = {
            "tflops": round(r.achieved_tflops, 4),
            "time_us": round(r.time_us, 2),
            "balance": round(r.balance, 3),
        }

    study = run_kernel_pack_ablation()
    assert_checks(study.checks())
    print(study.render())
    naive, fused, flash = map(study.profile, ("naive", "fused", "flash"))
    layer = {
        "naive_total_ms": round(naive.total_time_ms, 2),
        "naive_exposed_ms": round(exposed_softmax_tpc_us(naive) / 1e3, 2),
        "fused_exposed_ms": round(exposed_softmax_tpc_us(fused) / 1e3, 2),
        "flash_total_ms": round(flash.total_time_ms, 2),
        "flash_exposed_ms": round(exposed_softmax_tpc_us(flash) / 1e3, 2),
        "flash_naive_ratio": round(study.flash_layer_ratio, 3),
        "flash_score_hbm_bytes": score_matrix_hbm_bytes(flash),
        "score_traffic_ratio": round(study.score_traffic_ratio, 1),
    }
    assert layer["flash_score_hbm_bytes"] == 0, (
        "flash schedule moved score-matrix bytes through HBM"
    )
    measured = {
        "kernels": {"tflops": _column(kernels, "tflops")},
        "softmax_layer": layer,
    }
    return measured, {"kernels": kernels, "softmax_layer": layer}


def measure_backend(thresholds):
    """A18: the Fig. 4 layer and the GPT/BERT training steps per
    backend, and a band around the Gaudi seed layer time."""
    study = run_backend_ablation()
    assert_checks(study.checks())
    print(study.render())
    layer, training = {}, {}
    for name in STUDY_BACKENDS:
        prof = study.profile(name)
        layer[name] = {
            "total_ms": round(prof.total_time_ms, 2),
            "matmul_tflops": round(
                matmul_engine_tflops(prof, get_backend(name)), 1
            ),
        }
        training[name] = {}
        for model in ("gpt", "bert"):
            step = study.profile(name, model)
            training[name][model] = {
                "total_ms": round(step.total_time_ms, 2),
                "tokens_per_s": round(tokens_per_second(step)),
            }
    guard = thresholds["gaudi_guard"]
    seed_ms, band = guard["layer_total_ms"], guard["rel_band"]
    gaudi_ms = layer["gaudi"]["total_ms"]
    assert abs(gaudi_ms - seed_ms) <= band * seed_ms, (
        f"gaudi layer total {gaudi_ms:.2f} ms drifted out of the "
        f"+-{band:.0%} band around the seed {seed_ms:.2f} ms"
    )
    measured = {
        "layer": {
            metric: _column(layer, metric)
            for metric in ("matmul_tflops", "total_ms")
        },
        "training": {"tokens_per_s": {
            name: _column(per, "tokens_per_s")
            for name, per in training.items()
        }},
    }
    payload = {
        "layer": layer,
        "training": training,
        "matmul_throughput_ratio": round(study.matmul_throughput_ratio, 1),
    }
    return measured, payload


#: gate name -> (measure function, BENCH file it rewrites or None).
#: The wall-time gate runs first, before the other gates' work evicts
#: its warm caches.
GATES = {
    "sim_throughput": (measure_sim_throughput, "BENCH_sim.json"),
    "overlap": (measure_overlap, None),
    "memory": (measure_memory, None),
    "serving": (measure_serving, "BENCH_serving.json"),
    "parallel": (measure_parallel, "BENCH_parallel.json"),
    "kernel": (measure_kernel, "BENCH_kernels.json"),
    "backend": (measure_backend, "BENCH_backends.json"),
}


@pytest.mark.parametrize("name", GATES)
def test_gate(benchmark, name):
    measure, bench_file = GATES[name]
    thresholds = json.loads((HERE / f"{name}_thresholds.json").read_text())
    measured, payload = benchmark.pedantic(
        measure, args=(thresholds,), rounds=1, iterations=1
    )
    broken = violations(name, thresholds, measured)
    assert not broken, "bounds broken:\n" + "\n".join(broken)

    payload = {**payload, "thresholds": {
        k: v for k, v in thresholds.items() if not k.startswith("_")
    }}
    if bench_file is not None:
        (HERE.parent / bench_file).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
    benchmark.extra_info.update(payload)


@pytest.mark.parametrize("bounds, measured, expected", [
    # a value equal to its bound passes, for min_ and max_
    ({"s": {"min_x": 1, "max_y": 2}}, {"s": {"x": 1, "y": 2}}, []),
    ({"s": {"min_x": 1, "max_y": 2}}, {"s": {"x": 0.5, "y": 2.5}},
     ["g.s.min_x: measured 0.5, bound 1", "g.s.max_y: measured 2.5, bound 2"]),
    # a bound with no measured counterpart fails, named by its path
    ({"s": {"max_y": 2}}, {"s": {"z": 0}}, ["g.s.max_y: no measured 'y'"]),
    ({"min_x": 1}, {}, ["g.min_x: no measured 'x'"]),
    # a dict bound is held per key and names the inner key
    ({"s": {"min_x": {"a": 1, "b": 2}}}, {"s": {"x": {"a": 1, "b": 1}}},
     ["g.s.min_x.b: measured 1, bound 2"]),
    ({"s": {"min_x": {"a": 1, "b": 2}}}, {"s": {"x": {"a": 1}}},
     ["g.s.min_x.b: no measured 'b'"]),
    # a scalar bound is held against every entry of a measured dict
    ({"s": {"max_x": 3}}, {"s": {"x": {"a": 3, "b": 4}}},
     ["g.s.max_x.b: measured 4, bound 3"]),
    # keys that are not min_/max_ bounds are ignored
    ({"_comment": "c", "rounds": 7, "s": {
        "comment": "c", "shapes": {"batch": 4}, "card_counts": [8, 32],
    }}, {}, []),
])
def test_violations(bounds, measured, expected):
    assert violations("g", bounds, measured) == expected
