"""Serving-layer invariants: the A15 simulator and its decode-path
contracts.

The properties the PR claims, executed:

* conservation — every arrival finishes exactly one of
  completed / truncated (cache-full) / rejected;
* TTFT decomposes exactly into queueing + prefill, and event times are
  causally ordered;
* KV residency (reservations + weights) never exceeds the HBM budget,
  including under a tight budget where the planner — not the slot
  count — bounds the batch;
* the serving JSONL is byte-identical at any ``--jobs`` width;
* the KV-cache boundary: ``max_decode_context`` is the last legal
  decode step, and cached generation reproduces the uncached tokens;
* the simulated results are pinned: golden SHA-256 digests cover the
  metrics and every request's lifecycle on the A15, benchmark and
  length-cap traces, and a step-by-step reference loop (below) must
  reproduce the simulator on random geometries, budgets and traces;
  the reference admits through its own probe-per-request oracle, also
  against a stub runtime whose verdicts are deliberately non-monotone.
"""

import dataclasses
import hashlib
import io
import json
import traceback
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ht
from repro.core.decode_study import DecodeStudyResult
from repro.core.serving import (
    DEFAULT_WORKLOAD,
    ServingPoint,
    ServingResult,
    ServingSimulator,
    ServingWorkload,
    generate_requests,
    kv_bytes_per_token,
    run_serving,
    serving_weight_bytes,
)
from repro.core.serving import _bucket_batch
from repro.models import (
    GPT2LMHeadModel,
    generate,
    max_decode_context,
    paper_gpt_config,
    record_decode_step,
    scaled,
    tiny_gpt_config,
)
from repro.hw.backend import get_backend
from repro.synapse import CompilerOptions
from repro.synapse.serving import ServingRuntime
from repro.util.errors import DataError, DeviceMemoryError, ShapeError

SMALL = scaled(paper_gpt_config(), vocab_size=128, seq_len=256)
SMALL_WORKLOAD = ServingWorkload(prompt_range=(4, 48), output_range=(2, 40))


@pytest.fixture(scope="module")
def runtime():
    """One shared step-cost oracle; geometries compile once per module."""
    return ServingRuntime()


@pytest.fixture(scope="module")
def simulator(runtime):
    return ServingSimulator(
        runtime, model_config=SMALL, max_batch=4, ctx_quantum=64
    )


class TestKvCacheBoundary:
    def test_last_legal_context(self):
        cfg = SMALL
        assert max_decode_context(cfg) == cfg.max_seq_len - 1
        rec = record_decode_step(
            cfg, batch=1, context_len=max_decode_context(cfg)
        )
        assert rec.graph is not None

    def test_cache_full_is_rejected_with_contract(self):
        cfg = SMALL
        with pytest.raises(ShapeError, match="exceeds"):
            record_decode_step(cfg, batch=1, context_len=cfg.max_seq_len)
        with pytest.raises(ShapeError, match="finish or evict"):
            record_decode_step(cfg, batch=1, context_len=cfg.max_seq_len)

    def test_serving_loop_truncates_at_boundary(self, runtime):
        # one request whose desired output overruns the cache: it must
        # finish as length_cap with its cache inside the boundary
        sim = ServingSimulator(runtime, model_config=SMALL, max_batch=2)
        trace = generate_requests(
            1, 5.0,
            workload=ServingWorkload(
                prompt_range=(200, 200), output_range=(500, 500)
            ),
        )
        result = sim.run(trace, "continuous")
        (req,) = result.records
        assert req.finish_reason == "length_cap"
        # resident cache entries = prompt + generated - 1: the loop
        # stops exactly when the cache is full, never past it
        assert req.prompt_len + req.generated - 1 == SMALL.max_seq_len
        assert result.metrics()["truncated"] == 1


class TestCachedGeneration:
    def _trained_ish_model(self):
        return GPT2LMHeadModel(
            tiny_gpt_config(vocab_size=31), rng=np.random.default_rng(3)
        )

    def test_cached_matches_uncached_greedy_and_sampled(self):
        model = self._trained_ish_model()
        prompt = [1, 4, 9, 16]
        slow = generate(model, prompt, max_new_tokens=20, use_cache=False)
        fast = generate(model, prompt, max_new_tokens=20)
        assert slow == fast
        s1 = generate(model, prompt, max_new_tokens=20, temperature=0.7,
                      rng=np.random.default_rng(5), use_cache=False)
        s2 = generate(model, prompt, max_new_tokens=20, temperature=0.7,
                      rng=np.random.default_rng(5))
        assert s1 == s2

    def test_cached_matches_uncached_past_the_window(self):
        # the context slides past max_seq_len mid-generation; the
        # cached path must fall back and still match token for token
        model = self._trained_ish_model()
        window = model.config.max_seq_len
        prompt = list(range(1, 30))
        n = window - len(prompt) + 10
        slow = generate(model, prompt, max_new_tokens=n, use_cache=False)
        fast = generate(model, prompt, max_new_tokens=n)
        assert slow == fast


class TestDecodeStudyGuards:
    def _degenerate(self):
        profile = SimpleNamespace(
            total_time_us=0.0,
            schedule=SimpleNamespace(ops=[]),
            timeline=SimpleNamespace(busy_time_us=lambda engine: 0.0),
        )
        return DecodeStudyResult([128], 1, profiles=[profile])

    def test_idle_mme_raises(self):
        with pytest.raises(DataError, match="kept the MME idle"):
            self._degenerate().mme_achieved_tflops(0)

    def test_zero_duration_raises(self):
        with pytest.raises(DataError, match="zero-duration"):
            self._degenerate().tokens_per_second(0)


class TestServingProperties:
    @given(
        seed=st.integers(0, 30),
        rate=st.floats(2.0, 200.0),
        num=st.integers(5, 40),
        policy=st.sampled_from(("static", "continuous")),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservation_and_causality(self, simulator, seed, rate, num,
                                        policy):
        trace = generate_requests(
            num, rate, workload=SMALL_WORKLOAD, seed=seed
        )
        result = simulator.run(trace, policy)
        m = result.metrics()
        # conservation: every arrival lands in exactly one bucket
        assert m["completed"] + m["truncated"] + m["rejected"] == num
        for r in result.records:
            assert r.finish_reason in ("completed", "length_cap", "rejected")
            if r.finish_reason == "rejected":
                continue
            # causal ordering and the exact TTFT decomposition
            assert r.arrival_us <= r.admitted_us <= r.first_token_us
            assert r.first_token_us <= r.finish_us
            assert r.ttft_us == pytest.approx(
                r.queueing_us + (r.first_token_us - r.admitted_us)
            )
            assert 1 <= r.generated <= r.output_len
            # the cache never outgrew the model's window
            assert r.prompt_len + r.generated <= SMALL.max_seq_len + 1

    @given(
        seed=st.integers(0, 10),
        policy=st.sampled_from(("static", "continuous")),
    )
    @settings(max_examples=10, deadline=None)
    def test_residency_within_budget(self, simulator, seed, policy):
        trace = generate_requests(
            25, 50.0, workload=SMALL_WORKLOAD, seed=seed
        )
        result = simulator.run(trace, policy)
        assert result.peak_kv_actual_bytes <= result.peak_kv_reserved_bytes
        assert (
            result.weight_bytes + result.peak_kv_reserved_bytes
            <= result.budget_bytes
        )

    def test_tight_budget_bounds_batch_below_slots(self):
        # budget holds the weights plus only a few requests' reserved
        # KV: admission must stop there, well before the slot count
        per_request = kv_bytes_per_token(SMALL) * SMALL.max_seq_len
        budget = serving_weight_bytes(SMALL) + 8 * per_request
        runtime = ServingRuntime(hbm_budget=budget)
        sim = ServingSimulator(
            runtime, model_config=SMALL, max_batch=16, ctx_quantum=64
        )
        trace = generate_requests(
            60, 100.0,
            workload=ServingWorkload(
                prompt_range=(32, 128), output_range=(64, 128)
            ),
        )
        result = sim.run(trace, "continuous")
        m = result.metrics()
        assert m["completed"] + m["truncated"] == 60  # nothing starves
        assert 0 < result.peak_in_flight < 16
        assert (
            result.weight_bytes + result.peak_kv_reserved_bytes <= budget
        )


class TestServingJsonl:
    def test_byte_identical_at_any_jobs_width(self):
        points = [
            ServingPoint(policy=p, rate_per_s=r, num_requests=80)
            for r in (10.0, 40.0)
            for p in ("static", "continuous")
        ]
        serial, pooled = io.StringIO(), io.StringIO()
        run_serving(points, stream=serial, jobs=1)
        run_serving(points, stream=pooled, jobs=2)
        assert serial.getvalue() == pooled.getvalue()
        lines = serial.getvalue().splitlines()
        assert len(lines) == len(points)


class TestServingRuntime:
    def test_step_costs_memoize(self):
        runtime = ServingRuntime()
        calls = []

        def factory():
            calls.append(1)
            return record_decode_step(SMALL, batch=2, context_len=64).graph

        first = runtime.step_cost(("t", 2, 64), factory)
        again = runtime.step_cost(("t", 2, 64), factory)
        assert first is again
        assert len(calls) == 1
        assert runtime.lookups == 2 and runtime.measured == 1
        assert runtime.replay_fraction == pytest.approx(0.5)
        # the serving loop queries the oracle once per constant-geometry
        # segment, once per prefill and per admission probe — not once
        # per decode step
        sim = ServingSimulator(
            runtime, model_config=SMALL, max_batch=4, ctx_quantum=64
        )
        before = runtime.lookups
        trace = generate_requests(40, 20.0, workload=SMALL_WORKLOAD)
        result = sim.run(trace, "continuous")
        assert runtime.lookups - before < result.decode_steps
        # admission reads the simulator's verdict tables: a warm rerun
        # never asks the runtime for a verdict and measures nothing new
        asked = []

        def feasible(key, graph_factory):
            asked.append(key)
            return ServingRuntime.feasible(runtime, key, graph_factory)

        runtime.feasible = feasible
        counters = (runtime.measured, runtime.infeasible)
        again = sim.run(trace, "continuous")
        assert asked == []
        assert (runtime.measured, runtime.infeasible) == counters
        assert _serving_digest(again) == _serving_digest(result)
        # each run serves fresh copies: served records replay as a trace
        replay = sim.run(result.records, "continuous")
        assert _serving_digest(replay) == _serving_digest(result)

    def test_infeasible_geometry_memoized(self):
        runtime = ServingRuntime(hbm_budget=1 << 20)  # 1 MiB: nothing fits
        calls = []

        def factory():
            calls.append(1)
            return record_decode_step(SMALL, batch=2, context_len=64).graph

        assert not runtime.feasible(("t", 2, 64), factory)
        assert not runtime.feasible(("t", 2, 64), factory)
        assert len(calls) == 1
        assert runtime.infeasible == 1

    def test_memoized_error_does_not_chain_tracebacks(self):
        # re-raising one exception instance appends each raise's frames
        # to its traceback; the memo must not grow (and pin frames) per
        # query
        runtime = ServingRuntime(hbm_budget=1 << 20)

        def factory():
            return record_decode_step(SMALL, batch=2, context_len=64).graph

        depths = []
        for _ in range(20):
            with pytest.raises(DeviceMemoryError) as info:
                runtime.step_cost(("t", 2, 64), factory)
            depths.append(len(traceback.extract_tb(info.value.__traceback__)))
        assert depths[-1] == depths[1]

    def test_serves_on_the_compiler_backend(self):
        runtime = ServingRuntime(options=CompilerOptions(backend="wse"))
        backend = get_backend("wse")
        assert runtime.hbm_budget == backend.memory_capacity_bytes(
            backend.default_config()
        )
        sim = ServingSimulator(
            runtime, model_config=SMALL, max_batch=4, ctx_quantum=64
        )
        trace = generate_requests(50, 20.0, workload=SMALL_WORKLOAD)
        m = sim.run(trace, "continuous").metrics()
        assert m["completed"] + m["truncated"] == 50
        assert m["budget_bytes"] == runtime.hbm_budget
        gaudi = ServingSimulator(
            ServingRuntime(), model_config=SMALL, max_batch=4, ctx_quantum=64
        ).run(trace, "continuous").metrics()
        # the wafer prices the same steps differently
        assert m["tpot_mean_ms"] != gaudi["tpot_mean_ms"]


class TestServingValidation:
    def test_bad_trace_args(self):
        with pytest.raises(DataError, match="num_requests"):
            generate_requests(0, 10.0)
        with pytest.raises(DataError, match="arrival_rate"):
            generate_requests(5, 0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate(self, rate):
        # NaN arrivals are neither before nor after any time, so a NaN
        # rate would spin both policies forever; inf puts every arrival
        # at t=0
        with pytest.raises(DataError, match="must be finite and > 0"):
            generate_requests(5, rate)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    @pytest.mark.parametrize("policy", ["static", "continuous"])
    def test_non_finite_arrival(self, simulator, arrival, policy):
        trace = generate_requests(3, 10.0, workload=SMALL_WORKLOAD)
        trace[1].arrival_us = arrival
        with pytest.raises(DataError, match="request 1: arrival_us"):
            simulator.run(trace, policy)

    @pytest.mark.parametrize("field, bad", [
        ("prompt_range", (300, 100)),
        ("prompt_range", (0, 4)),
        ("output_range", (0, 3)),
        ("output_range", (-2, -1)),
    ])
    def test_bad_workload_ranges(self, field, bad):
        with pytest.raises(DataError, match=field):
            ServingWorkload(**{field: bad})

    def test_single_token_ranges_are_legal(self):
        ServingWorkload(prompt_range=(1, 1), output_range=(1, 1))

    def test_unknown_policy(self, simulator):
        trace = generate_requests(2, 10.0, workload=SMALL_WORKLOAD)
        with pytest.raises(Exception, match="unknown serving policy"):
            simulator.run(trace, "clairvoyant")


# -- pinned simulated results -------------------------------------------------


def _serving_digest(result) -> str:
    """SHA-256 over a run's metrics and every request's lifecycle."""
    rows = [
        (r.rid, r.admitted_us, r.first_token_us, r.finish_us,
         r.finish_reason, r.generated)
        for r in result.records
    ]
    payload = json.dumps([result.metrics(), rows], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# -- the admission oracle: one runtime probe per verdict, no tables ----------


def _feasible(sim, kind: str, batch: int, size: int) -> bool:
    return sim.runtime.feasible(*sim._geometry(kind, batch, size))


def _viable(sim, req, reserved_ctx: int) -> bool:
    """Whether the request could ever be served alone.

    The decode probe applies even to a request that never decodes:
    ``_group_fits`` asks it of a lone joiner, so skipping it here would
    let a head refused alone stall the loop.
    """
    if req.prompt_len > sim.config.max_seq_len:
        return False
    reserved = sim.kv_per_token * reserved_ctx
    if sim.weight_bytes + reserved > sim.budget_bytes:
        return False
    sb = sim._prompt_bucket(req.prompt_len)
    if not _feasible(sim, "prefill", 1, sb):
        return False
    ctx = min(reserved_ctx, sim.max_context)
    return _feasible(sim, "decode", 1, ctx)


def _group_fits(sim, members, prefill_group) -> bool:
    """Admission test: reservations + planner verdicts for the
    would-be in-flight set — a function of its membership alone."""
    reserved = sum(r.reserved_kv_bytes for r in members)
    if sim.weight_bytes + reserved > sim.budget_bytes:
        return False
    bb = _bucket_batch(len(members))
    worst_ctx = min(
        max(r.reserved_kv_bytes for r in members) // sim.kv_per_token,
        sim.max_context,
    )
    if not _feasible(sim, "decode", bb, worst_ctx):
        return False
    pb = _bucket_batch(len(prefill_group))
    sb = sim._prompt_bucket(max(r.prompt_len for r in prefill_group))
    return _feasible(sim, "prefill", pb, sb)


def _admit(sim, queue, in_flight, t):
    """Pop FCFS joiners that fit alongside ``in_flight`` at ``t``."""
    joiners = []
    while (
        queue
        and queue[0].arrival_us <= t
        and len(in_flight) + len(joiners) < sim.max_batch
    ):
        cand = queue[0]
        reserved_ctx = sim._reserved_ctx(cand)
        if not _viable(sim, cand, reserved_ctx):
            queue.popleft()
            cand.finish_reason = "rejected"
            cand.finish_us = t
            continue
        cand.reserved_kv_bytes = sim.kv_per_token * reserved_ctx
        if not _group_fits(
            sim, in_flight + joiners + [cand], joiners + [cand]
        ):
            cand.reserved_kv_bytes = 0
            break
        joiners.append(queue.popleft())
    return joiners


def _step_reference(sim, requests, policy) -> ServingResult:
    """The serving loop one decode step at a time, admitting through
    the probe-per-request oracle above: the reference the simulator's
    verdict tables and segment advance must reproduce exactly."""
    sim._reset_stats()
    work = [dataclasses.replace(r) for r in requests]
    queue, batch, t, bucket = deque(work), [], 0.0, 1
    cap = max_decode_context(sim.config)
    while queue or batch:
        if not batch and queue[0].arrival_us > t:
            t = queue[0].arrival_us
        joiners = []
        if policy == "continuous" or not batch:
            joiners = _admit(sim, queue, batch, t)
        if joiners:
            t = sim._prefill(joiners, t)
            batch += [r for r in joiners if r.finish_us is None]
            bucket = _bucket_batch(len(joiners))
        if not batch:
            continue
        if policy == "continuous":
            bucket = _bucket_batch(len(batch))
        sim.peak_in_flight = max(sim.peak_in_flight, len(batch))
        sim.peak_kv_reserved_bytes = max(
            sim.peak_kv_reserved_bytes,
            sum(r.reserved_kv_bytes for r in batch),
        )
        sim.peak_kv_actual_bytes = max(
            sim.peak_kv_actual_bytes,
            sim.kv_per_token * sum(r.context_len for r in batch),
        )
        ctx = sim._ctx_bucket(max(r.context_len for r in batch))
        t += sim._cost("decode", bucket, ctx).time_us
        sim.decode_steps += 1
        sim.decode_slot_tokens += len(batch)
        for r in batch:
            r.generated += 1
            if r.generated >= r.output_len:
                r.finish_reason, r.finish_us = "completed", t
            elif r.prompt_len + r.generated - 1 > cap:
                r.finish_reason, r.finish_us = "length_cap", t
            else:
                r.context_len += 1
        batch = [r for r in batch if r.finish_us is None]
    return ServingResult(
        policy, work, t, sim.prefill_steps, sim.decode_steps,
        sim.decode_slot_tokens, sim.peak_in_flight,
        sim.peak_kv_reserved_bytes, sim.peak_kv_actual_bytes,
        sim.weight_bytes, sim.budget_bytes,
    )


def _kv_budget(model, tokens: int) -> int:
    """An HBM budget: the weights plus ``tokens`` cached tokens of KV."""
    return serving_weight_bytes(model) + kv_bytes_per_token(model) * tokens


#: the A15 KV-pressure scenario's model (see run_serving_ablation)
PRESSURE = scaled(paper_gpt_config(), vocab_size=512)
#: the benchmark's serve-kvbound length mix
KVBOUND_WORKLOAD = ServingWorkload(
    prompt_range=(16, 1536), output_range=(8, 256)
)
#: prompts near SMALL's window: requests truncate at the cache boundary
#: and decode runs in the last (cap) context bucket
CAP_WORKLOAD = ServingWorkload(prompt_range=(150, 256), output_range=(8, 160))

#: name -> (model, max_batch, ctx_quantum, HBM budget bytes or None for
#: the device capacity, requests, rate, workload, policy)
GOLDEN_SCENARIOS = {
    **{
        f"a15-{policy}-{rate:g}": (
            paper_gpt_config(), 8, 128, None, 1500, rate,
            DEFAULT_WORKLOAD, policy,
        )
        for rate in (10.0, 20.0, 40.0)
        for policy in ("static", "continuous")
    },
    "a15-pressure": (
        PRESSURE, 16, 128, _kv_budget(PRESSURE, 5 * PRESSURE.max_seq_len),
        200, 10.0,
        ServingWorkload(prompt_range=(256, 768), output_range=(256, 512)),
        "continuous",
    ),
    "knee-continuous": (
        paper_gpt_config(), 8, 128, None, 2000, 20.0, DEFAULT_WORKLOAD,
        "continuous",
    ),
    "knee-static": (
        paper_gpt_config(), 8, 128, None, 2000, 20.0, DEFAULT_WORKLOAD,
        "static",
    ),
    "kvbound-continuous": (
        paper_gpt_config(), 8, 128, 160 << 20, 2000, 40.0,
        KVBOUND_WORKLOAD, "continuous",
    ),
    "cap-continuous": (
        SMALL, 4, 64, None, 300, 20.0, CAP_WORKLOAD, "continuous",
    ),
    "cap-static": (SMALL, 4, 64, None, 300, 20.0, CAP_WORKLOAD, "static"),
}

GOLDEN_DIGESTS = {
    "a15-continuous-10": "bfbe3506682d0148581abd6370cf048c677dd85045538bb8a4036557ff7cb938",
    "a15-continuous-20": "352632cbdf933853e322a24ca70a52e18c59db5b0f3b2296b95135a49efe3fba",
    "a15-continuous-40": "dd2dcdb2ef2b84c658830395034bc521fd579aa59ba695c3a65c4c3715549502",
    "a15-pressure": "edea8b21ffdce38d52af9df1a5f8b18801c02ce59662b9bddc7460b671f8e99c",
    "a15-static-10": "9ef9df109063580b5cd77aa5274c4a8dfda92b31781ae65faf63b29b6beb4152",
    "a15-static-20": "7520b0736042aeb6dcda50d167b3d3f8bf7254b4427f28c682fa48c63160edea",
    "a15-static-40": "bcb5500515c328530d3d5afc6348d1b9d899ba4a370578e51ac87f932ecd5a92",
    "cap-continuous": "61440a9f5bf112dda0463ba76b47a088d9ed35e540ecb8169cf73aa6169b96cf",
    "cap-static": "fc72f366109af3a6061430d165efe1480779f3d717e0ad0637bb073548a6d420",
    "knee-continuous": "e449275e5a0465569b06cabb24a1a972edb5f88db5137112f945ee1f811b74fb",
    "knee-static": "46cca4777a87239de29a46c8c9a4199a4524761d3cdafcfcefc66e30a7f4498b",
    "kvbound-continuous": "3c14331a2bbf7922e8c1c2273fdfb5c7e70e359c93bed23a7d7fda4bbd8da8e2",
}

#: name -> the (lookups, measured, infeasible) a scenario costs a fresh
#: step-cost oracle: how often the loop asks, and what it makes measure
GOLDEN_ORACLE_COUNTERS = {
    "a15-continuous-10": (4023, 13, 0),
    "a15-continuous-20": (4225, 16, 0),
    "a15-continuous-40": (2979, 14, 0),
    "a15-pressure": (878, 30, 3),
    "a15-static-10": (3520, 15, 0),
    "a15-static-20": (1909, 20, 0),
    "a15-static-40": (1849, 20, 0),
    "cap-continuous": (734, 8, 0),
    "cap-static": (711, 7, 0),
    "knee-continuous": (5567, 17, 0),
    "knee-static": (2519, 20, 0),
    "kvbound-continuous": (2375, 32, 11),
}


@pytest.fixture(scope="module")
def runtimes():
    """One step-cost oracle per HBM budget, shared across scenarios."""
    cache = {}

    def get(budget_bytes):
        if budget_bytes not in cache:
            cache[budget_bytes] = ServingRuntime(hbm_budget=budget_bytes)
        return cache[budget_bytes]

    return get


def _golden_run(runtimes, name, run=None):
    model, max_batch, quantum, budget, num, rate, workload, policy = (
        GOLDEN_SCENARIOS[name]
    )
    sim = ServingSimulator(
        runtimes(budget), model_config=model,
        max_batch=max_batch, ctx_quantum=quantum,
    )
    trace = generate_requests(num, rate, workload=workload, seed=0)
    if run is not None:
        return run(sim, trace, policy)
    return sim.run(trace, policy)


class TestServingGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_golden_digest(self, runtimes, name):
        result = _golden_run(runtimes, name)
        assert _serving_digest(result) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_oracle_counters(self, name):
        # a fresh oracle per scenario: the counters must not depend on
        # which scenarios warmed a shared memo first
        runtime = ServingRuntime(hbm_budget=GOLDEN_SCENARIOS[name][3])
        result = _golden_run(lambda budget: runtime, name)
        counters = (runtime.lookups, runtime.measured, runtime.infeasible)
        assert counters == GOLDEN_ORACLE_COUNTERS[name]
        assert _serving_digest(result) == GOLDEN_DIGESTS[name]

    def test_cap_scenario_truncates(self, runtimes):
        # the cap goldens only pin the boundary if requests reach it
        for name in ("cap-continuous", "cap-static"):
            m = _golden_run(runtimes, name).metrics()
            assert m["truncated"] > 0 and m["completed"] > 0

    @pytest.mark.parametrize("name", ["knee-static", "cap-continuous"])
    def test_reference_matches_golden_scenario(self, runtimes, name):
        fast = _golden_run(runtimes, name)
        slow = _golden_run(runtimes, name, _step_reference)
        assert _serving_digest(fast) == _serving_digest(slow)

    @given(
        max_batch=st.integers(1, 6),
        quantum=st.sampled_from((32, 48, 64, 100)),
        budget=st.sampled_from((None, 128, 320, 768)),
        prompt_hi=st.sampled_from((48, 200, 256)),
        seed=st.integers(0, 50),
        rate=st.floats(5.0, 400.0),
        num=st.integers(1, 40),
        policy=st.sampled_from(("static", "continuous")),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_step_reference(self, runtimes, max_batch, quantum,
                                    budget, prompt_hi, seed, rate, num,
                                    policy):
        # budget: cached tokens of KV the HBM holds beside the weights
        sim = ServingSimulator(
            runtimes(budget and _kv_budget(SMALL, budget)),
            model_config=SMALL,
            max_batch=max_batch, ctx_quantum=quantum,
        )
        trace = generate_requests(
            num, rate, seed=seed,
            workload=ServingWorkload(
                prompt_range=(4, prompt_hi), output_range=(2, 120)
            ),
        )
        fast = sim.run(trace, policy)
        slow = _step_reference(sim, trace, policy)
        assert _serving_digest(fast) == _serving_digest(slow)


class _NonMonotoneRuntime(ServingRuntime):
    """Verdicts no monotone rule predicts: decode refused at batch 2 for
    short contexts yet accepted at batch 4, a lone decode refused in the
    last context bucket yet accepted in a pair, and a lone prefill
    refused at prompt bucket 128 yet accepted at 192. Its budget binds
    only the simulator's reservation arithmetic: the planner never
    enforces it."""

    hbm_budget = _kv_budget(SMALL, 384)

    def feasible(self, key, graph_factory):
        _, kind, batch, size = key
        if (kind, batch) == ("decode", 2) and size <= 128:
            return False
        if (kind, batch, size) in (
            ("decode", 1, max_decode_context(SMALL)), ("prefill", 1, 128),
        ):
            return False
        return super().feasible(key, graph_factory)


class TestNonMonotoneVerdicts:
    @pytest.fixture(scope="class")
    def stub(self):
        return _NonMonotoneRuntime()

    def _sim(self, stub):
        return ServingSimulator(
            stub, model_config=SMALL, max_batch=4, ctx_quantum=64
        )

    def _trace(self, seed):
        return generate_requests(
            60, 300.0, seed=seed,
            workload=ServingWorkload(
                prompt_range=(4, 200), output_range=(1, 40)
            ),
        )

    @pytest.mark.parametrize("policy", ["static", "continuous"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_admission_oracle(self, stub, policy, seed):
        sim = self._sim(stub)
        fast = sim.run(self._trace(seed), policy)
        slow = _step_reference(sim, self._trace(seed), policy)
        assert _serving_digest(fast) == _serving_digest(slow)
        assert fast.weight_bytes + fast.peak_kv_reserved_bytes <= (
            stub.hbm_budget
        )

    def test_refused_batch_does_not_bound_larger_batches(self, stub):
        sim = self._sim(stub)
        result = sim.run(self._trace(2), "continuous")
        assert sim._verdicts["decode", 2, 128] is False
        assert sim._verdicts["decode", 4, 128] is True
        assert result.peak_in_flight == 4
        assert result.metrics()["rejected"] > 0

    @pytest.mark.parametrize("policy", ["static", "continuous"])
    def test_head_refused_alone_is_rejected(self, stub, policy):
        # a prompt that fills the window never decodes, yet admission
        # asks its lone decode geometry: viability must ask it too, or
        # the refused head stalls the loop forever
        trace = generate_requests(
            2, 10.0,
            workload=ServingWorkload(
                prompt_range=(SMALL.max_seq_len, SMALL.max_seq_len),
                output_range=(5, 5),
            ),
        )
        m = self._sim(stub).run(trace, policy).metrics()
        assert m["rejected"] == 2
