"""The benchmark's workloads: set-up, one cycle of operations, checks.

Every workload drives the simulator from outside, through the public
entry points a user calls, and opens a span (see :mod:`tracing`) around
each call into a layer. An operation's output is checked, and reduced
to a digest of its simulated results, outside its timed interval.

All issue policies are chosen with ``scheduler=`` (``"inorder"``,
``"lookahead"``) or ``hbm_contention=False``; the benchmark never uses
the ``reorder``/``engine`` switches, so it keeps working when those
paths are folded away.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.core.e2e_llm import record_training_step
from repro.core.serving import (
    ServingSimulator,
    ServingWorkload,
    generate_requests,
)
from repro.hw.config import HLS1Config
from repro.hw.device import HLS1Device
from repro.synapse import CompilerOptions, GraphCompiler
from repro.synapse.lint import lint_schedule
from repro.synapse.recipe import RecipeCache
from repro.synapse.runtime import HLS1Runtime
from repro.synapse.serving import ServingRuntime
from repro.synapse.trace import validate_no_engine_overlap


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass
class Outcome:
    """What the check keeps of one operation's output."""

    #: hash of the simulated results; a repeat of the op must match it
    digest: str
    #: work units done: training steps, simulated events or requests
    work: float
    #: simulated statistics (simulated clock, deterministic)
    sim: dict


@dataclass
class Op:
    """One timed call sequence and the check of its output."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- traced entry points ------------------------------------------------------


class TracedCompiler(GraphCompiler):
    """A ``GraphCompiler`` whose every ``compile`` is a span.

    With ``collect``, every schedule it returns is also appended to that
    list, so that a caller which compiles out of sight (the serving
    runtime) still hands each schedule to the checks.
    """

    def __init__(self, tracer, *args, collect=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self.collect = collect

    def compile(self, graph):
        with self.tracer.span("synapse.compile") as sp:
            schedule = super().compile(graph)
        if self.collect is not None:
            self.collect.append(schedule)
        if self.tracer.enabled:
            sp.attrs["nodes"] = len(graph.nodes)
            sp.attrs["recipe_hit"] = self.last_cache_hit
            if not self.last_cache_hit:
                # a recipe hit returns a clone whose pass stats are the
                # original compile's; only a pipeline run adds pass time
                sp.attrs["passes"] = [
                    (p["pass"], p["wall_us"])
                    for p in schedule.stats["passes"]
                ]
                inc = schedule.stats.get("incremental", {})
                sp.attrs["reused"] = inc.get("reused", 0)
                sp.attrs["recomputed"] = inc.get("recomputed", 0)
        return schedule


def _record(tracer, factory):
    """Record a graph inside an ``ht.record`` span."""
    with tracer.span("ht.record") as sp:
        graph = factory()
    sp.attrs["nodes"] = len(graph.nodes)
    return graph


class _TracedFactory:
    """Stands in for a step's graph factory; only a memo miss calls it."""

    __slots__ = ("tracer", "factory", "start", "since")

    def __init__(self, tracer):
        self.tracer = tracer
        self.factory = None
        self.start = None

    def __call__(self):
        self.start = time.perf_counter()
        self.since = len(self.tracer.spans)
        return _record(self.tracer, self.factory)


class TracedServingRuntime(ServingRuntime):
    """A ``ServingRuntime`` whose memo misses are spans.

    A miss (record, compile and execute a new geometry) begins when the
    graph factory is called and is recorded after the fact as a
    ``serving_runtime.measure`` span around the record and compile
    spans it caused. Misses happen in set-up, whose warm-up run measures
    every geometry the trace needs; :meth:`stop_tracing_misses` then
    removes the wrapper, so the timed phase's memo hits cost nothing
    extra.
    """

    def __init__(self, tracer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self._factory = _TracedFactory(tracer)
        # shadows the class's method until stop_tracing_misses()
        self.step_cost = self._traced_step_cost

    def stop_tracing_misses(self) -> None:
        del self.step_cost

    def _traced_step_cost(self, key, graph_factory):
        proxy = self._factory
        proxy.factory = graph_factory
        proxy.start = None
        try:
            return ServingRuntime.step_cost(self, key, proxy)
        finally:
            if proxy.start is not None:
                self.tracer.adopt(
                    "serving_runtime.measure", proxy.start,
                    time.perf_counter(), proxy.since,
                )


def _execute(tracer, schedule, system, key, first, **policy):
    """``HLS1Runtime.execute`` on a fresh device, inside a span."""
    runtime = HLS1Runtime(HLS1Device(system))
    with tracer.span("runtime.execute") as sp:
        result = runtime.execute(schedule, **policy)
    if tracer.enabled:
        pinfo = schedule.stats.get("pipeline") or {}
        sp.attrs.update(
            key=key, first=first, events=len(result.timeline.events),
            pipelined=int(pinfo.get("pp", 1) or 1) > 1,
            lookahead=policy.get("scheduler") == "lookahead",
            uncontended=not policy.get("hbm_contention", True),
        )
    return result


# -- checks -------------------------------------------------------------------


def _check_schedule(schedule, budget_bytes: int) -> str:
    """Lint plus the memory-peak bound; returns the schedule's digest."""
    warnings = lint_schedule(schedule)
    if warnings:
        raise CheckFailed(f"lint_schedule: {warnings[0]}")
    peak = schedule.memory.peak_bytes
    if peak > budget_bytes:
        raise CheckFailed(f"memory peak {peak} > budget {budget_bytes}")
    return f"{len(schedule.ops)}:{peak}"


def _check_execution(result, validated: set[str]) -> str:
    """No engine runs two ops at once; returns the timeline's digest.

    A timeline whose digest is in ``validated`` is identical to one
    already checked, so the overlap scan runs once per distinct timeline.
    """
    events = result.timeline.events
    digest = _sha(repr((
        result.total_time_us, result.exposed_comm_us, result.fabric_busy_us,
        result.contention_stall_us,
        [(e.name, e.engine.value, e.card, e.start_us, e.dur_us)
         for e in events],
    )))
    if digest not in validated:
        try:
            validate_no_engine_overlap(result.timeline)
        except Exception as err:  # ExecutionError: a failed check
            raise CheckFailed(str(err)) from err
        validated.add(digest)
    return digest


def _check_serving(result, num_requests: int) -> tuple[str, dict]:
    """Every request ends exactly once and KV residency fits the budget."""
    m = result.metrics()
    ended = m["completed"] + m["truncated"] + m["rejected"]
    if ended != num_requests or m["requests"] != num_requests:
        raise CheckFailed(
            f"{result.policy}: completed+truncated+rejected = {ended}, "
            f"requests = {num_requests}"
        )
    if m["weight_bytes"] + m["peak_kv_reserved_bytes"] > m["budget_bytes"]:
        raise CheckFailed(f"{result.policy}: KV reservation over budget")
    sim = {
        f"sim_tokens_per_s[{result.policy}]": m["tokens_per_s"],
        f"sim_ttft_p99_ms[{result.policy}]": m["ttft_p99_ms"],
        f"sim_completed_frac[{result.policy}]": m["completed"] / num_requests,
    }
    return _sha(json.dumps(m, sort_keys=True)), sim


# -- workloads ----------------------------------------------------------------


class _GridWorkload:
    """A grid of operations, run once per cycle."""

    grid: list[tuple] = []
    #: whether the seed shuffles the grid's order in every cycle
    shuffled = True

    def __init__(self, seed: int, tracer):
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.validated: set[str] = set()

    def cycle(self) -> list[Op]:
        grid = list(self.grid)
        if self.shuffled:
            self.rng.shuffle(grid)
        return [self._op(*point) for point in grid]

    @staticmethod
    def summarize(outcomes: dict[str, Outcome]) -> dict:
        return {"sim_makespan_ms": sum(
            o.sim["makespan_ms"] for o in outcomes.values()
            if "makespan_ms" in o.sim)}


class TrainCompile(_GridWorkload):
    """Record, compile and execute DDP training steps over a shape grid.

    Each operation records a GPT or BERT training step, compiles it
    with a fresh recipe cache (so the pass pipeline runs every time,
    replaying from the process-wide pass cache where it can) and
    executes it on an 8-card HLS-1.
    """

    name = "train-compile"
    #: what the throughput counts, per host second
    throughput_name = "steps_per_s"
    #: reference-host seconds one cycle takes
    cycle_s = 1.5
    grid = [
        (model, batch, seq, lowering)
        for model in ("gpt", "bert")
        for batch in (4, 8)
        for seq in (256, 512, 1024, 2048)
        for lowering in ("naive", "flash")
    ]

    def setup(self) -> list:
        hls1 = HLS1Config()
        self.card = hls1.card
        self.system = replace(hls1, num_cards=8)
        self.options = {
            lowering: CompilerOptions(
                inject_collectives=True, attention_lowering=lowering
            )
            for lowering in ("naive", "flash")
        }
        return []

    def _op(self, model, batch, seq, lowering) -> Op:
        key = f"{model}-b{batch}-s{seq}-{lowering}"
        tracer = self.tracer

        def run():
            graph = _record(tracer, lambda: record_training_step(
                model, batch=batch, seq_len=seq).graph)
            compiler = TracedCompiler(
                tracer, self.card, self.options[lowering],
                cache=RecipeCache(),
            )
            schedule = compiler.compile(graph)
            result = _execute(tracer, schedule, self.system, key, True,
                              scheduler="inorder")
            return schedule, result

        def check(out) -> Outcome:
            schedule, result = out
            sched = _check_schedule(schedule, self.card.hbm.capacity_bytes)
            return Outcome(
                digest=_sha(sched + _check_execution(result, self.validated)),
                work=1,
                sim={"makespan_ms": result.total_time_us / 1e3},
            )

        return Op(key, run, check)


class MulticardExec(_GridWorkload):
    """Execute schedules compiled in set-up across systems and policies.

    Schedules: GPT and BERT DDP, GPT with ``tp=2`` and GPT with ``pp=2``
    over 4 microbatches. Systems: 1 card, 8 cards, 4 boxes of 8 cards
    (the pipelined schedule needs at least 2 cards). Policies: in-order,
    ``scheduler="lookahead"`` and ``hbm_contention=False``.
    """

    name = "multicard-exec"
    throughput_name = "sim_events_per_s"
    cycle_s = 1.4
    # the order of executes moves host time by several percent, so it
    # stays fixed: the seed does not change this workload's inputs
    shuffled = False

    SCHEDULES = {
        "gpt-ddp": ("gpt", {}),
        "bert-ddp": ("bert", {}),
        "gpt-tp2": ("gpt", {"tp": 2}),
        "gpt-pp2": ("gpt", {"pp": 2, "microbatches": 4}),
    }
    POLICIES = {
        "inorder": {"scheduler": "inorder"},
        "lookahead": {"scheduler": "lookahead"},
        "uncontended": {"scheduler": "inorder", "hbm_contention": False},
    }
    SYSTEMS = {
        "1card": {"num_cards": 1},
        "8card": {"num_cards": 8},
        "4x8card": {"num_cards": 8, "boxes": 4},
    }
    grid = [
        point for point in itertools.product(SCHEDULES, SYSTEMS, POLICIES)
        if point[:2] != ("gpt-pp2", "1card")
    ]

    def setup(self) -> list:
        hls1 = HLS1Config()
        self.card = hls1.card
        self.systems = {
            name: replace(hls1, **kw) for name, kw in self.SYSTEMS.items()
        }
        self.schedules = {}
        checks = []
        for name, (model, kw) in self.SCHEDULES.items():
            graph = _record(self.tracer, lambda: record_training_step(
                model).graph)
            compiler = TracedCompiler(
                self.tracer, self.card,
                CompilerOptions(inject_collectives=True, **kw),
                cache=RecipeCache(),
            )
            schedule = self.schedules[name] = compiler.compile(graph)
            checks.append((Op(
                f"compile:{name}", None,
                lambda s: Outcome(
                    _check_schedule(s, self.card.hbm.capacity_bytes), 0, {}),
            ), schedule))
        self._executed: set[str] = set()
        return checks

    def _op(self, sched, system, policy) -> Op:
        key = f"{sched}@{system}/{policy}"

        def run():
            first = sched not in self._executed
            self._executed.add(sched)
            return _execute(
                self.tracer, self.schedules[sched], self.systems[system],
                key, first, **self.POLICIES[policy],
            )

        def check(result) -> Outcome:
            return Outcome(
                digest=_check_execution(result, self.validated),
                work=len(result.timeline.events),
                sim={"makespan_ms": result.total_time_us / 1e3},
            )

        return Op(key, run, check)


class Serve:
    """Serve one seeded Poisson trace through the serving loop.

    Set-up generates the trace and serves it once under every policy,
    which measures every step geometry the trace needs; each timed
    operation then serves the same trace again from the warm geometry
    memo and must reproduce the set-up run's results exactly. Every
    schedule the serving runtime compiles while it measures is checked
    after set-up.
    """

    throughput_name = "requests_per_s"

    def __init__(self, seed: int, tracer):
        self.tracer = tracer
        self.seed = seed

    def setup(self) -> list:
        if self.tracer.enabled:
            runtime = TracedServingRuntime(
                self.tracer, hbm_budget=self.hbm_budget)
        else:
            runtime = ServingRuntime(hbm_budget=self.hbm_budget)
        compiled: list = []
        runtime.compiler = TracedCompiler(
            self.tracer, runtime.config, runtime.options,
            cache=runtime.recipes, collect=compiled,
        )
        self.runtime = runtime
        self.sim = ServingSimulator(runtime, max_batch=8)
        self.trace = generate_requests(
            self.requests, self.rate_per_s, workload=self.mix,
            seed=self.seed,
        )
        op = self._op()
        warm = op.run()
        if self.tracer.enabled:
            runtime.stop_tracing_misses()
        budget = runtime.hbm_budget
        checks = [(Op(
            f"compile:{i}", None,
            lambda s: Outcome(_check_schedule(s, budget), 0, {}),
        ), schedule) for i, schedule in enumerate(compiled)]
        return [(op, warm)] + checks

    def cycle(self) -> list[Op]:
        return [self._op()]

    def _run(self, policy: str):
        runtime = self.runtime
        before = (runtime.lookups, runtime.measured, runtime.infeasible)
        with self.tracer.span("serving.run") as sp:
            result = self.sim.run(self.trace, policy)
        if self.tracer.enabled:
            sp.attrs.update(
                policy=policy,
                lookups=runtime.lookups - before[0],
                measured=runtime.measured - before[1],
                infeasible=runtime.infeasible - before[2],
                decode_steps=result.decode_steps,
                prefill_steps=result.prefill_steps,
                rejected=sum(r.finish_reason == "rejected"
                             for r in result.records),
            )
        return result

    def _op(self) -> Op:
        def run():
            return [self._run(policy) for policy in self.policies]

        def check(results) -> Outcome:
            digests, sim = [], {}
            for result in results:
                digest, stats = _check_serving(result, self.requests)
                digests.append(digest)
                sim.update(stats)
            return Outcome(_sha("".join(digests)),
                           self.requests * len(results), sim)

        return Op("+".join(self.policies), run, check)

    @staticmethod
    def summarize(outcomes: dict[str, Outcome]) -> dict:
        out = {}
        for o in outcomes.values():
            out.update(o.sim)
        return out


class ServeKnee(Serve):
    """10k requests at 20 req/s, default length mix, continuous and
    static batching: the decode loop replays a handful of memoized
    geometries, so nearly all host time is the serving loop itself."""

    name = "serve-knee"
    cycle_s = 2.0
    requests = 10_000
    rate_per_s = 20.0
    mix = ServingWorkload()
    hbm_budget = None
    policies = ("continuous", "static")


class ServeKVBound(Serve):
    """10k requests at 40 req/s, prompts 16-1536 and outputs 8-256,
    under a 160 MiB HBM budget, continuous batching: KV reservation
    bounds admission and many geometries are measured or infeasible."""

    name = "serve-kvbound"
    cycle_s = 1.0
    requests = 10_000
    rate_per_s = 40.0
    mix = ServingWorkload(prompt_range=(16, 1536), output_range=(8, 256))
    hbm_budget = 160 << 20
    policies = ("continuous",)


WORKLOADS = {
    w.name: w for w in (TrainCompile, MulticardExec, ServeKnee, ServeKVBound)
}
