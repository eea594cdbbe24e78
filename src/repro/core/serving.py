"""A15: request-level inference serving — continuous vs static batching.

The paper profiles training steps; this module serves *traffic*. A
Poisson stream of requests (each with its own prompt and output
length) flows through a simulated serving loop built from the pieces
earlier PRs measured one at a time:

* **prefill** — one forward pass over the prompt (the
  :func:`~repro.core.e2e_llm.record_forward_step` shape), producing
  the first token and populating the request's KV cache;
* **decode** — KV-cached steps
  (:func:`~repro.models.kvcache.record_decode_step`), one token per
  step for every request in the batch, until each request has its
  output or hits the cache-full boundary
  (:func:`~repro.models.kvcache.max_decode_context`) and finishes
  truncated instead of crashing. Between events (arrival, finish,
  truncation, a context crossing its bucket) every step costs the same,
  so the loop advances one constant-geometry *segment* per lookup;
* **batching policy** — ``static`` admits a batch, runs it to
  completion, then admits the next (stragglers hold every slot);
  ``continuous`` re-forms the batch at every event — finished requests
  leave immediately and waiting requests join in-flight, the ORCA/vLLM
  discipline;
* **step costs** — every step geometry is quantized (batch to a power
  of two, context/prompt up to a quantum) and priced once through a
  :class:`~repro.synapse.serving.ServingRuntime`, so simulating 10^4 -
  10^6 requests re-plays memoized step costs instead of recompiling;
* **memory admission** — weights plus each in-flight request's
  *reserved* KV footprint must fit the HBM budget, and the worst-case
  decode geometry must pass the memory planner (the PR-5 machinery):
  under a tight budget the cache, not the slot count, bounds the
  admissible batch.

The A15 ablation sweeps arrival rates under both policies and checks
the serving story: continuous batching beats static on p99
time-to-first-token at equal-or-better throughput.
"""

from __future__ import annotations

import json
import math
import tempfile
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .. import ht
from ..hw.config import GaudiConfig
from ..hw.dtypes import DType, itemsize
from ..models import GPT2LMHeadModel, paper_gpt_config
from ..models.config import LLMConfig
from ..models.kvcache import max_decode_context, record_decode_step
from ..synapse import CompilerOptions
from ..synapse.serving import ServingRuntime, StepCost
from ..util.errors import (
    ConfigError,
    DataError,
    DeviceMemoryError,
    ExecutionError,
)
from ..util.gc_pause import gc_paused
from ..util.rng import make_rng
from ..util.tabulate import render_table
from .reference import ShapeCheck, threshold_check

#: context/prompt lengths quantize up to multiples of this (the recipe
#: geometry grid — coarser means fewer compiles, finer means less
#: padded work per step)
DEFAULT_CTX_QUANTUM = 128

#: serving policies the simulator implements
SERVING_POLICIES = ("static", "continuous")


@dataclass(frozen=True)
class ServingWorkload:
    """Per-request length distributions (inclusive integer ranges)."""

    prompt_range: tuple[int, int] = (16, 256)
    output_range: tuple[int, int] = (8, 96)

    def __post_init__(self):
        for name in ("prompt_range", "output_range"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise DataError(f"{name} needs 1 <= lo <= hi, got {lo, hi}")

    def describe(self) -> dict:
        """JSON-ready identity of the workload distributions."""
        return {
            "prompt_lo": self.prompt_range[0],
            "prompt_hi": self.prompt_range[1],
            "output_lo": self.output_range[0],
            "output_hi": self.output_range[1],
        }


DEFAULT_WORKLOAD = ServingWorkload()


@dataclass(slots=True)
class Request:
    """One serving request and its lifecycle timestamps (us)."""

    rid: int
    arrival_us: float
    prompt_len: int
    output_len: int
    admitted_us: float | None = None
    first_token_us: float | None = None
    finish_us: float | None = None
    #: tokens produced so far (prefill yields the first)
    generated: int = 0
    #: KV-cache entries currently resident for this request
    context_len: int = 0
    #: "completed" | "length_cap" (cache-full truncation) | "rejected"
    finish_reason: str | None = None
    #: admission-time reservation: the quantized worst-case KV bytes
    reserved_kv_bytes: int = 0
    #: the quantized prompt (prefill) length, set when a run copies the
    #: request
    prompt_bucket: int = 0
    #: the quantized worst-case context, prompt plus output; set with
    #: ``prompt_bucket``
    reserved_ctx: int = 0

    @property
    def ttft_us(self) -> float:
        """Time to first token (arrival -> prefill completion)."""
        return self.first_token_us - self.arrival_us

    @property
    def queueing_us(self) -> float:
        """Time spent waiting before admission."""
        return self.admitted_us - self.arrival_us


@gc_paused()
def generate_requests(
    num_requests: int,
    arrival_rate_per_s: float,
    *,
    workload: ServingWorkload = DEFAULT_WORKLOAD,
    seed: int = 0,
) -> list[Request]:
    """A Poisson arrival trace with per-request lengths.

    Inter-arrival gaps are exponential with mean ``1/rate``; prompt
    and output lengths draw uniformly from the workload's ranges. The
    trace is a pure function of ``(num_requests, rate, workload,
    seed)`` — the determinism the byte-identical JSONL property
    rests on.
    """
    if num_requests < 1:
        raise DataError(f"num_requests must be >= 1, got {num_requests}")
    if not (math.isfinite(arrival_rate_per_s) and arrival_rate_per_s > 0):
        raise DataError(
            "arrival_rate_per_s must be finite and > 0, "
            f"got {arrival_rate_per_s}"
        )
    rng = make_rng(seed)
    gaps = rng.exponential(1e6 / arrival_rate_per_s, size=num_requests)
    arrivals = np.cumsum(gaps)
    p_lo, p_hi = workload.prompt_range
    o_lo, o_hi = workload.output_range
    prompts = rng.integers(p_lo, p_hi, size=num_requests, endpoint=True)
    outputs = rng.integers(o_lo, o_hi, size=num_requests, endpoint=True)
    return [
        Request(i, arrival, prompt, output)
        for i, (arrival, prompt, output) in enumerate(zip(
            arrivals.tolist(), prompts.tolist(), outputs.tolist()
        ))
    ]


def kv_bytes_per_token(config: LLMConfig) -> int:
    """Resident KV-cache bytes one cached token costs (all layers)."""
    attn = config.layer.attention
    return (
        2 * config.num_layers * attn.num_heads * attn.head_dim
        * itemsize(DType.BF16)
    )


def serving_weight_bytes(config: LLMConfig) -> int:
    """Persistent weight bytes resident while serving.

    Per layer: the four attention projections plus the two FFN
    matmuls; plus the LM head and both embedding tables.
    """
    d = config.d_model
    ffn = d * config.layer.ffn_mult
    per_layer = 4 * d * d + 2 * d * ffn
    total = (
        config.num_layers * per_layer
        + d * config.vocab_size           # lm head
        + config.vocab_size * d           # token embeddings
        + config.max_seq_len * d          # position embeddings
    )
    return total * itemsize(DType.BF16)


def _bucket_batch(n: int) -> int:
    """Quantize a batch size up to the next power of two."""
    b = 1
    while b < n:
        b *= 2
    return b


def _config_tag(config: LLMConfig) -> tuple:
    """Geometry-memo namespace for one model config."""
    return (
        config.vocab_size, config.max_seq_len, config.num_layers,
        config.d_model, config.layer.ffn_mult,
        config.layer.attention.num_heads,
    )


def _record_prefill(config: LLMConfig, batch: int, seq_len: int):
    """Record one symbolic prompt-prefill forward at the geometry."""
    model = GPT2LMHeadModel(config, materialize=False)
    with ht.record(f"prefill-b{batch}-s{seq_len}", mode="symbolic") as rec:
        model(ht.input_tensor((batch, seq_len), name="input_ids"))
    return rec


class ServingSimulator:
    """The request-level serving loop over a step-cost oracle.

    One simulator serves one model config through one
    :class:`~repro.synapse.serving.ServingRuntime`; its HBM budget is
    the runtime's (set there so the memory planner enforces the same
    number the admission arithmetic uses).
    """

    def __init__(
        self,
        runtime: ServingRuntime,
        *,
        model_config: LLMConfig | None = None,
        max_batch: int = 8,
        ctx_quantum: int = DEFAULT_CTX_QUANTUM,
    ):
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if ctx_quantum < 1:
            raise ConfigError(
                f"ctx_quantum must be >= 1, got {ctx_quantum}"
            )
        self.runtime = runtime
        self.config = model_config or paper_gpt_config()
        if not self.config.layer.attention.causal:
            raise ConfigError(
                "serving decode requires a causal (GPT-style) model"
            )
        self.max_batch = max_batch
        self.ctx_quantum = ctx_quantum
        self.budget_bytes = runtime.hbm_budget
        self.weight_bytes = serving_weight_bytes(self.config)
        self.kv_per_token = kv_bytes_per_token(self.config)
        self.max_context = max_decode_context(self.config)
        self._tag = _config_tag(self.config)
        #: _bucket_batch(n) for every batch size 0..max_batch
        self._batch_buckets = tuple(
            _bucket_batch(n) for n in range(max_batch + 1)
        )
        # (kind, batch bucket, size bucket) -> (step-cost key, factory);
        # -> the StepCost once the runtime has measured it, so a hit is
        # one probe; and -> the runtime's feasibility verdict: fixed for
        # a runtime but not monotone in batch or context, so each
        # geometry is asked
        self._geometries: dict[tuple, tuple] = {}
        self._costs: dict[tuple, StepCost] = {}
        self._verdicts: dict[tuple, bool] = {}
        # (prompt bucket, reserved context) -> _viable
        self._viability: dict[tuple, bool] = {}
        # per-run trackers (reset by run())
        self._reset_stats()

    def _reset_stats(self) -> None:
        self.prefill_steps = 0
        self.decode_steps = 0
        self.decode_slot_tokens = 0
        self.peak_in_flight = 0
        self.peak_kv_reserved_bytes = 0
        self.peak_kv_actual_bytes = 0

    # -- geometry -----------------------------------------------------------

    def _ctx_bucket(self, context_len: int) -> int:
        """Quantize a decode context up; never past the legal maximum."""
        q = self.ctx_quantum
        return min(-(-context_len // q) * q, self.max_context)

    def _prompt_bucket(self, prompt_len: int) -> int:
        q = self.ctx_quantum
        return min(-(-prompt_len // q) * q, self.config.max_seq_len)

    def _reserved_ctx(self, req: Request) -> int:
        """Worst-case resident cache entries, quantized: the value
        ``run()`` stores on each copy as ``Request.reserved_ctx``."""
        return self._prompt_bucket(req.prompt_len + req.output_len)

    def _geometry(self, kind: str, batch: int, size: int):
        """Step-cost key and graph factory of a ``"decode"`` (``size`` =
        context bucket) or ``"prefill"`` (prompt bucket) step."""
        hit = self._geometries.get((kind, batch, size))
        if hit is None:
            if kind == "decode":
                rec = partial(record_decode_step, self.config, batch=batch,
                              context_len=size)
            else:
                rec = partial(_record_prefill, self.config, batch, size)
            hit = (self._tag, kind, batch, size), lambda: rec().graph
            self._geometries[kind, batch, size] = hit
        return hit

    def _cost(self, kind: str, batch: int, size: int) -> StepCost:
        """The step cost at a geometry, counted as one runtime lookup.

        A geometry the runtime has measured answers from ``_costs``;
        the first query, and every query of an infeasible geometry
        (which raises :class:`~repro.util.errors.DeviceMemoryError`),
        goes through :meth:`ServingRuntime.step_cost`.
        """
        cost = self._costs.get((kind, batch, size))
        if cost is None:
            cost = self.runtime.step_cost(*self._geometry(kind, batch, size))
            self._costs[kind, batch, size] = cost
        else:
            self.runtime.lookups += 1
        return cost

    def _feasible(self, kind: str, batch: int, size: int) -> bool:
        ok = self._verdicts.get((kind, batch, size))
        if ok is None:
            ok = self.runtime.feasible(*self._geometry(kind, batch, size))
            self._verdicts[kind, batch, size] = ok
        return ok

    # -- admission ----------------------------------------------------------

    def _viable(self, req: Request) -> bool:
        """Whether the request could ever be served alone: it passes the
        admission test against an empty batch, so a viable head can
        never be refused forever."""
        if req.prompt_len > self.config.max_seq_len:
            return False
        sb, reserved_ctx = req.prompt_bucket, req.reserved_ctx
        ok = self._viability.get((sb, reserved_ctx))
        if ok is None:
            ok = self._viability[sb, reserved_ctx] = (
                self.weight_bytes + self.kv_per_token * reserved_ctx
                <= self.budget_bytes
                and self._feasible("prefill", 1, sb)
                and self._feasible(
                    "decode", 1, min(reserved_ctx, self.max_context))
            )
        return ok

    def _admit(
        self, queue: "deque[Request]", in_flight: list[Request], t: float
    ) -> list[Request]:
        """Pop FCFS joiners that fit alongside ``in_flight`` at ``t``:
        the would-be in-flight set's reservations must fit beside the
        weights, and its worst-case decode geometry and the joiners'
        grouped prefill must be feasible."""
        joiners: list[Request] = []
        size = len(in_flight)
        room = self.max_batch - size
        if not queue or queue[0].arrival_us > t or room <= 0:
            return joiners
        kv = self.kv_per_token
        free = self.budget_bytes - self.weight_bytes
        max_context = self.max_context
        buckets = self._batch_buckets
        verdicts = self._verdicts
        reserved = worst = 0
        for r in in_flight:
            reserved += r.reserved_kv_bytes
            if r.reserved_ctx > worst:
                worst = r.reserved_ctx
        # the prompt bucket of the joiners' longest prompt: bucketing is
        # monotone, so it is the largest of their buckets
        longest = 0
        while queue and queue[0].arrival_us <= t and len(joiners) < room:
            cand = queue[0]
            if not self._viable(cand):
                queue.popleft()
                cand.finish_reason = "rejected"
                cand.finish_us = t
                continue
            reserved_ctx = cand.reserved_ctx
            cand_bytes = kv * reserved_ctx
            if reserved + cand_bytes > free:
                break
            worst_ctx = worst if worst > reserved_ctx else reserved_ctx
            sb = cand.prompt_bucket
            if longest > sb:
                sb = longest
            n = len(joiners) + 1
            decode = (
                "decode", buckets[size + n],
                worst_ctx if worst_ctx < max_context else max_context,
            )
            ok = verdicts.get(decode)
            if ok is None:
                ok = self._feasible(*decode)
            if not ok:
                break
            prefill = ("prefill", buckets[n], sb)
            ok = verdicts.get(prefill)
            if ok is None:
                ok = self._feasible(*prefill)
            if not ok:
                break
            cand.reserved_kv_bytes = cand_bytes
            reserved += cand_bytes
            worst, longest = worst_ctx, sb
            joiners.append(queue.popleft())
        return joiners

    # -- steps --------------------------------------------------------------

    def _prefill(self, joiners: list[Request], t: float) -> float:
        """Run one grouped prefill; returns the completion time."""
        pb = self._batch_buckets[len(joiners)]
        sb = self._prompt_bucket(max([r.prompt_len for r in joiners]))
        end = t + self._cost("prefill", pb, sb).time_us
        self.prefill_steps += 1
        for r in joiners:
            r.admitted_us = t
            r.first_token_us = end
            r.generated = 1
            r.context_len = r.prompt_len
            if r.generated >= r.output_len:
                r.finish_reason = "completed"
                r.finish_us = end
            elif r.context_len > self.max_context:
                # the prompt already fills the cache: no decode step is
                # legal (see models.kvcache.decode_shapes), so the
                # request finishes truncated at its prefill token
                r.finish_reason = "length_cap"
                r.finish_us = end
        return end

    def _advance(
        self, batch: list[Request], t: float, batch_bucket: int,
        until: float,
    ) -> tuple[float, list[Request]]:
        """Decode ``batch`` through one constant-geometry segment.

        One step-cost lookup prices every step up to the next event: a
        member completing or reaching the cache boundary, the largest
        context leaving its bucket, or the first step ending at or after
        ``until``. Time advances one addition per step, so timestamps
        match a step-by-step loop bit for bit. Returns the end time and
        the members still decoding.
        """
        ctx = resident = reserved = 0
        to_complete = math.inf
        for r in batch:
            c = r.context_len
            resident += c
            reserved += r.reserved_kv_bytes
            if c > ctx:
                ctx = c
            left = r.output_len - r.generated
            if left < to_complete:
                to_complete = left
        # _ctx_bucket and _cost, inline: a priced geometry is one probe
        q, cap = self.ctx_quantum, self.max_context
        ctx_bucket = -(-ctx // q) * q
        if ctx_bucket > cap:
            ctx_bucket = cap
        cost = self._costs.get(("decode", batch_bucket, ctx_bucket))
        if cost is None:
            try:
                cost = self._cost("decode", batch_bucket, ctx_bucket)
            except DeviceMemoryError as err:  # admission guaranteed it fits
                raise ExecutionError(
                    "decode step infeasible after admission — the admission "
                    "check reserves the worst-case geometry: a simulator bug"
                ) from err
        else:
            self.runtime.lookups += 1
        dt = cost.time_us
        # the largest context leaves its bucket — or, in the last bucket,
        # passes the cap and truncates — or the first member completes
        steps = ctx_bucket - ctx + 1
        if to_complete < steps:
            steps = to_complete
        if until == math.inf:
            for _ in range(steps):
                t += dt
            n = steps
        else:
            for n in range(1, steps + 1):
                t += dt
                if t >= until:
                    break
        size = len(batch)
        self.decode_steps += n
        self.decode_slot_tokens += n * size
        # residency only grows within a segment: its peak is the
        # context before the last step
        if size > self.peak_in_flight:
            self.peak_in_flight = size
        if reserved > self.peak_kv_reserved_bytes:
            self.peak_kv_reserved_bytes = reserved
        actual = self.kv_per_token * (resident + (n - 1) * size)
        if actual > self.peak_kv_actual_bytes:
            self.peak_kv_actual_bytes = actual
        live = []
        for r in batch:
            r.generated += n
            if r.generated >= r.output_len:
                r.finish_reason = "completed"
                r.finish_us = t
            elif r.context_len + n > cap:
                # cache-full boundary: that was the last legal step
                r.finish_reason = "length_cap"
                r.finish_us = t
            else:
                r.context_len += n
                live.append(r)
        return t, live

    # -- policies -----------------------------------------------------------

    @gc_paused()
    def run(self, requests: list[Request], policy: str) -> "ServingResult":
        """Serve fresh copies of ``requests`` (arrival order) under
        ``policy``; the inputs are never mutated."""
        if policy not in SERVING_POLICIES:
            raise ConfigError(
                f"unknown serving policy {policy!r} "
                f"(choices: {', '.join(SERVING_POLICIES)})"
            )
        self._reset_stats()
        # fresh copies: callers serve one trace under both policies; each
        # copy carries its buckets (_prompt_bucket and _reserved_ctx,
        # inline), so admission never recomputes them
        q, cap = self.ctx_quantum, self.config.max_seq_len
        isfinite = math.isfinite
        work = []
        for r in requests:
            if not isfinite(r.arrival_us):
                raise DataError(
                    f"request {r.rid}: arrival_us must be finite, "
                    f"got {r.arrival_us}"
                )
            w = Request(r.rid, r.arrival_us, r.prompt_len, r.output_len)
            sb = -(-w.prompt_len // q) * q
            ctx = -(-(w.prompt_len + w.output_len) // q) * q
            w.prompt_bucket = sb if sb < cap else cap
            w.reserved_ctx = ctx if ctx < cap else cap
            work.append(w)
        queue = deque(work)
        if policy == "continuous":
            makespan = self._run_continuous(queue)
        else:
            makespan = self._run_static(queue)
        return ServingResult(
            policy=policy,
            records=work,
            makespan_us=makespan,
            prefill_steps=self.prefill_steps,
            decode_steps=self.decode_steps,
            decode_slot_tokens=self.decode_slot_tokens,
            peak_in_flight=self.peak_in_flight,
            peak_kv_reserved_bytes=self.peak_kv_reserved_bytes,
            peak_kv_actual_bytes=self.peak_kv_actual_bytes,
            weight_bytes=self.weight_bytes,
            budget_bytes=self.budget_bytes,
        )

    def _run_continuous(self, queue: "deque[Request]") -> float:
        buckets = self._batch_buckets
        batch: list[Request] = []
        t = 0.0
        # an arrived head held back (no free slot, or admission refused
        # it) stays held until a member leaves: both verdicts depend only
        # on the membership and the head
        held = False
        while queue or batch:
            if not batch and queue[0].arrival_us > t:
                t = queue[0].arrival_us
            if not held and queue and queue[0].arrival_us <= t:
                joiners = self._admit(queue, batch, t)
                if joiners:
                    t = self._prefill(joiners, t)
                    batch += [r for r in joiners if r.finish_us is None]
                held = not joiners and bool(queue) and queue[0].arrival_us <= t
            if not batch:
                continue
            size = len(batch)
            until = math.inf
            if queue and not held and size < self.max_batch:
                until = queue[0].arrival_us
            t, batch = self._advance(batch, t, buckets[size], until)
            held = held and len(batch) == size
        return t

    def _run_static(self, queue: "deque[Request]") -> float:
        t = 0.0
        while queue:
            if queue[0].arrival_us > t:
                t = queue[0].arrival_us
            group = self._admit(queue, [], t)
            if not group:
                continue  # head was rejected; re-test the next head
            t = self._prefill(group, t)
            batch = [r for r in group if r.finish_us is None]
            # the admitted batch runs to completion: finished requests
            # free no slot and nobody joins until the batch drains
            bucket = self._batch_buckets[len(group)]
            while batch:
                t, batch = self._advance(batch, t, bucket, math.inf)
        return t


@dataclass
class ServingResult:
    """One simulated serving run and its derived metrics."""

    policy: str
    records: list[Request]
    makespan_us: float
    prefill_steps: int
    decode_steps: int
    decode_slot_tokens: int
    peak_in_flight: int
    peak_kv_reserved_bytes: int
    peak_kv_actual_bytes: int
    weight_bytes: int
    budget_bytes: int

    def finished(self) -> list[Request]:
        """Requests that produced tokens (completed or truncated)."""
        return [
            r for r in self.records
            if r.finish_reason in ("completed", "length_cap")
        ]

    def metrics(self) -> dict:
        """Flat JSON-ready metrics (the JSONL payload).

        Every value is a pure function of the request trace and the
        memoized step costs — deterministic at any pool width.
        """
        done = self.finished()
        reasons = [r.finish_reason for r in self.records]
        counts = {
            "completed": reasons.count("completed"),
            "truncated": reasons.count("length_cap"),
            "rejected": reasons.count("rejected"),
        }
        ttfts = np.array([r.ttft_us for r in done]) if done else np.array([0.0])
        tpots = [
            (r.finish_us - r.first_token_us) / (r.generated - 1)
            for r in done if r.generated > 1
        ]
        tokens = sum(r.generated for r in done)
        seconds = self.makespan_us / 1e6 if self.makespan_us > 0 else 1.0
        return {
            "requests": len(self.records),
            **counts,
            "tokens": int(tokens),
            "tokens_per_s": round(tokens / seconds, 4),
            "ttft_p50_ms": round(float(np.percentile(ttfts, 50)) / 1e3, 4),
            "ttft_p99_ms": round(float(np.percentile(ttfts, 99)) / 1e3, 4),
            "tpot_mean_ms": round(
                float(np.mean(tpots)) / 1e3 if tpots else 0.0, 4
            ),
            "makespan_s": round(seconds, 4),
            "prefill_steps": self.prefill_steps,
            "decode_steps": self.decode_steps,
            "mean_decode_batch": round(
                self.decode_slot_tokens / self.decode_steps, 4
            ) if self.decode_steps else 0.0,
            "peak_in_flight": self.peak_in_flight,
            "peak_kv_reserved_bytes": self.peak_kv_reserved_bytes,
            "peak_kv_actual_bytes": self.peak_kv_actual_bytes,
            "weight_bytes": self.weight_bytes,
            "budget_bytes": self.budget_bytes,
        }


# -- the sweep / CLI surface -------------------------------------------------


@dataclass(frozen=True)
class ServingPoint:
    """One (policy, arrival rate) scenario of a serving sweep."""

    policy: str
    rate_per_s: float
    num_requests: int = 10_000
    seed: int = 0
    max_batch: int = 8

    def describe(self) -> dict:
        """The point's identity as JSON-ready scalars."""
        return {
            "policy": self.policy,
            "rate_per_s": self.rate_per_s,
            "requests": self.num_requests,
            "seed": self.seed,
            "max_batch": self.max_batch,
        }


@dataclass
class ServingPointResult:
    """One executed serving point: identity + flat metrics."""

    point: ServingPoint
    metrics: dict
    result: ServingResult | None = None

    def to_json(self) -> dict:
        """The point's JSONL record."""
        return {"sweep": "serving", **self.point.describe(), **self.metrics}


def _run_point(
    point: ServingPoint,
    runtime: ServingRuntime,
    workload: ServingWorkload,
    ctx_quantum: int,
    model_config: LLMConfig | None,
) -> ServingPointResult:
    sim = ServingSimulator(
        runtime, model_config=model_config,
        max_batch=point.max_batch, ctx_quantum=ctx_quantum,
    )
    trace = generate_requests(
        point.num_requests, point.rate_per_s,
        workload=workload, seed=point.seed,
    )
    result = sim.run(trace, point.policy)
    return ServingPointResult(
        point=point, metrics=result.metrics(), result=result
    )


def _serving_worker(payload) -> dict:
    """Process-pool worker: one serving point, own runtime, shared
    disk recipes (module-level for pickling)."""
    point, config, options, hbm_budget, recipe_dir, workload, quantum = (
        payload
    )
    runtime = ServingRuntime(
        config, options=options, hbm_budget=hbm_budget,
        recipe_dir=recipe_dir,
    )
    return _run_point(point, runtime, workload, quantum, None).metrics


def run_serving(
    points: list[ServingPoint],
    *,
    config: GaudiConfig | None = None,
    options: CompilerOptions | None = None,
    hbm_budget: int | None = None,
    workload: ServingWorkload = DEFAULT_WORKLOAD,
    ctx_quantum: int = DEFAULT_CTX_QUANTUM,
    jobs: int = 1,
    stream=None,
    recipe_dir: "str | Path | None" = None,
    runtime: ServingRuntime | None = None,
) -> list[ServingPointResult]:
    """Execute serving points, streaming one JSON line per point.

    ``jobs > 1`` fans points over a process pool; workers share a
    disk recipe directory so each distinct step geometry compiles once
    fleet-wide, and ``pool.map`` preserves spec order — the JSONL is
    byte-identical at any width because every metric is a
    deterministic function of the point. Serial runs share one
    :class:`~repro.synapse.serving.ServingRuntime` (pass ``runtime``
    to share its geometry memo across calls).
    """
    if not points:
        raise DataError("run_serving needs at least one point")
    config = config or GaudiConfig()
    base = options or CompilerOptions()

    opened = None
    if isinstance(stream, (str, Path)):
        opened = stream = open(stream, "w")
    try:
        results: list[ServingPointResult] = []
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            tmp = None
            if recipe_dir is None:
                tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
                recipe_dir = tmp.name
            try:
                payloads = [
                    (p, config, base, hbm_budget, str(recipe_dir),
                     workload, ctx_quantum)
                    for p in points
                ]
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    for point, metrics in zip(
                        points, pool.map(_serving_worker, payloads)
                    ):
                        pr = ServingPointResult(point=point, metrics=metrics)
                        if stream is not None:
                            _emit_serving(stream, pr)
                        results.append(pr)
            finally:
                if tmp is not None:
                    tmp.cleanup()
            return results

        shared = runtime or ServingRuntime(
            config, options=base, hbm_budget=hbm_budget,
            recipe_dir=recipe_dir,
        )
        for point in points:
            pr = _run_point(point, shared, workload, ctx_quantum, None)
            if stream is not None:
                _emit_serving(stream, pr)
            results.append(pr)
        return results
    finally:
        if opened is not None:
            opened.close()


def _emit_serving(stream, pr: ServingPointResult) -> None:
    stream.write(json.dumps(pr.to_json()) + "\n")
    stream.flush()


def render_serving_table(
    results: list[ServingPointResult], *, title: str = "serving"
) -> str:
    """The human table for a list of serving points."""
    rows = []
    for r in results:
        m = r.metrics
        rows.append((
            r.point.policy,
            f"{r.point.rate_per_s:g}",
            f"{m['ttft_p50_ms']:.1f}",
            f"{m['ttft_p99_ms']:.1f}",
            f"{m['tpot_mean_ms']:.2f}",
            f"{m['tokens_per_s']:,.0f}",
            f"{m['mean_decode_batch']:.1f}",
            f"{m['completed']}/{m['truncated']}/{m['rejected']}",
        ))
    return render_table(
        ["policy", "req/s", "TTFT p50 (ms)", "TTFT p99 (ms)",
         "TPOT (ms)", "tokens/s", "mean batch", "done/trunc/rej"],
        rows,
        title=title,
    )


# -- the A15 ablation --------------------------------------------------------

#: arrival rates swept by A15 (requests/s): light load, near the knee,
#: and past saturation of the batch-8 decode loop
DEFAULT_ABLATION_RATES: tuple[float, ...] = (10.0, 20.0, 40.0)

#: requests per A15 point — small enough for CI, large enough for a
#: stable p99
DEFAULT_ABLATION_REQUESTS = 1500

#: throughput-parity tolerance for the headline check: continuous must
#: match static's tokens/s within this fraction while beating its p99
CONTINUOUS_THROUGHPUT_PARITY = 0.97

#: the "per-step compile cost is near zero" bar: fraction of step-cost
#: lookups served from the geometry memo
MIN_REPLAY_FRACTION = 0.98


@dataclass
class ServingAblationResult:
    """A15's measurements: the policy x rate grid + the KV-pressure
    scenario."""

    rows: list[ServingPointResult] = field(default_factory=list)
    runtime_info: dict = field(default_factory=dict)
    #: metrics of the tight-budget continuous run (cache pressure, not
    #: slots, bounds the batch)
    pressure: dict = field(default_factory=dict)
    pressure_max_batch: int = 0

    def result_for(self, policy: str, rate: float) -> ServingPointResult:
        """The grid point for ``(policy, rate)``."""
        for r in self.rows:
            if r.point.policy == policy and r.point.rate_per_s == rate:
                return r
        raise KeyError(f"no serving point for {policy!r} at {rate} req/s")

    def checks(self) -> list[ShapeCheck]:
        """A15's acceptance criteria."""
        top = max(r.point.rate_per_s for r in self.rows)
        static = self.result_for("static", top).metrics
        cont = self.result_for("continuous", top).metrics
        conserved = all(
            r.metrics["completed"] + r.metrics["truncated"]
            + r.metrics["rejected"] == r.metrics["requests"]
            for r in self.rows
        )
        parity = (
            cont["tokens_per_s"]
            >= static["tokens_per_s"] * CONTINUOUS_THROUGHPUT_PARITY
        )
        return [
            ShapeCheck(
                "A15: every arrival is exactly one of "
                "completed/truncated/rejected",
                conserved, str(conserved), "True",
            ),
            ShapeCheck(
                f"A15: continuous beats static on p99 TTFT at {top:g} "
                "req/s",
                cont["ttft_p99_ms"] < static["ttft_p99_ms"],
                f"{cont['ttft_p99_ms']:.1f} ms vs "
                f"{static['ttft_p99_ms']:.1f} ms",
                "continuous < static",
            ),
            ShapeCheck(
                "A15: continuous matches static throughput "
                f"(>= {CONTINUOUS_THROUGHPUT_PARITY:.0%})",
                parity,
                f"{cont['tokens_per_s']:,.0f} vs "
                f"{static['tokens_per_s']:,.0f} tokens/s",
                "parity or better",
            ),
            threshold_check(
                "A15: step costs replay from the geometry memo "
                "(per-step compile ~ zero)",
                self.runtime_info.get("replay_fraction", 0.0),
                MIN_REPLAY_FRACTION,
            ),
            ShapeCheck(
                "A15: under a tight budget the KV plan, not the slot "
                "count, bounds the batch",
                0 < self.pressure.get("peak_in_flight", 0)
                < self.pressure_max_batch
                and self.pressure.get("peak_kv_reserved_bytes", 0)
                + self.pressure.get("weight_bytes", 0)
                <= self.pressure.get("budget_bytes", 0),
                f"peak {self.pressure.get('peak_in_flight', 0)} in "
                f"flight of {self.pressure_max_batch} slots",
                "0 < peak < slots, residency <= budget",
            ),
        ]

    def render(self) -> str:
        """The policy x rate table plus the pressure scenario line."""
        table = render_serving_table(
            self.rows,
            title="A15: static vs continuous batching "
                  f"({self.rows[0].metrics['requests']} requests/point, "
                  "GPT decode)",
        )
        info = self.runtime_info
        lines = [
            table,
            f"step-cost oracle: {info.get('lookups', 0)} lookups, "
            f"{info.get('measured', 0)} measured geometries, "
            f"replay fraction {info.get('replay_fraction', 0.0):.1%}",
        ]
        if self.pressure:
            lines.append(
                "KV pressure (tight budget, continuous): peak "
                f"{self.pressure['peak_in_flight']} in flight of "
                f"{self.pressure_max_batch} slots, reserved KV "
                f"{self.pressure['peak_kv_reserved_bytes'] / (1 << 20):.1f}"
                f" MiB under a "
                f"{self.pressure['budget_bytes'] / (1 << 20):.1f} MiB "
                "budget",
            )
        return "\n".join(lines)


def run_serving_ablation(
    options: CompilerOptions | None = None,
    *,
    rates: tuple[float, ...] = DEFAULT_ABLATION_RATES,
    num_requests: int = DEFAULT_ABLATION_REQUESTS,
    max_batch: int = 8,
    seed: int = 0,
    workload: ServingWorkload = DEFAULT_WORKLOAD,
) -> ServingAblationResult:
    """A15: sweep arrival rates under static and continuous batching.

    Both policies replay the *same* seeded arrival trace per rate, so
    the comparison isolates the batching discipline. A second,
    tight-budget scenario (long-context small-vocab variant) shows KV
    residency — the planner's verdict — bounding the admissible batch
    below the slot count.
    """
    runtime = ServingRuntime(options=options)
    result = ServingAblationResult()
    points = [
        ServingPoint(
            policy=policy, rate_per_s=rate,
            num_requests=num_requests, seed=seed, max_batch=max_batch,
        )
        for rate in rates
        for policy in SERVING_POLICIES
    ]
    result.rows = run_serving(points, workload=workload, runtime=runtime)
    result.runtime_info = runtime.info()

    # KV-pressure scenario: long contexts, small vocabulary (so the
    # prefill's logits don't mask the cache), and a budget that holds
    # the weights plus only a few requests' reserved KV
    from ..models.config import scaled

    pressure_cfg = scaled(paper_gpt_config(), vocab_size=512)
    pressure_batch = 16
    pressure_workload = ServingWorkload(
        prompt_range=(256, 768), output_range=(256, 512),
    )
    per_request = kv_bytes_per_token(pressure_cfg) * pressure_cfg.max_seq_len
    budget = serving_weight_bytes(pressure_cfg) + 5 * per_request
    pressure_runtime = ServingRuntime(options=options, hbm_budget=budget)
    sim = ServingSimulator(
        pressure_runtime, model_config=pressure_cfg,
        max_batch=pressure_batch,
    )
    trace = generate_requests(
        200, rates[0], workload=pressure_workload, seed=seed,
    )
    result.pressure = sim.run(trace, "continuous").metrics()
    result.pressure_max_batch = pressure_batch
    return result
