"""SynapseProfiler: compile + execute + analyze in one call.

"SynapseAI profiler is used as suggested by Habana to generate hardware
trace events and accurately measure the execution time of each
operation" (§3.2). :class:`SynapseProfiler` is that tool's analog: feed
it a graph, get a :class:`ProfileResult` with the trace and the derived
metrics the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.config import GaudiConfig
from ..hw.costmodel import EngineKind
from ..hw.device import GaudiDevice
from ..util.tabulate import render_kv
from ..util.units import fmt_bytes, fmt_time_us, us_to_ms
from .compiler import CompilerOptions, GraphCompiler
from .graph import Graph
from .runtime import Runtime
from .schedule import Schedule
from .trace import Timeline, TraceEvent


@dataclass
class ProfileResult:
    """A profiled graph execution, normalized to start at t=0."""

    graph_name: str
    timeline: Timeline
    schedule: Schedule
    total_time_us: float
    #: whether compilation was served from the recipe cache
    cache_hit: bool = False

    # -- the paper's headline metrics ----------------------------------------

    @property
    def total_time_ms(self) -> float:
        """Makespan in milliseconds (the unit the paper quotes)."""
        return us_to_ms(self.total_time_us)

    def utilization(self, engine: EngineKind) -> float:
        """Busy fraction of ``engine`` over the makespan."""
        return self.timeline.utilization(engine)

    def idle_fraction(
        self, engine: EngineKind, *, until: str = "makespan"
    ) -> float:
        """The 'blank areas' fraction of ``engine``.

        ``until="last_compute"`` measures against the last MME/TPC
        completion instead of the trailing DMA drain.
        """
        return self.timeline.idle_fraction(engine, until=until)

    def idle_us(self, engine: EngineKind, *, until: str = "makespan") -> float:
        """Idle microseconds of ``engine`` (see :meth:`Timeline.idle_us`)."""
        return self.timeline.idle_us(engine, until=until)

    @property
    def mme_idle_fraction(self) -> float:
        """Idle fraction of the MME — Fig 4/6/8/9's observation."""
        return self.idle_fraction(EngineKind.MME)

    @property
    def overlap_stats(self) -> dict:
        """The ``tpc_slicing`` pass's per-schedule overlap statistics
        (empty when the pass did not run or sliced nothing)."""
        return dict(self.schedule.stats.get("overlap", {}))

    def src_share(self, src: str, engine: EngineKind = EngineKind.TPC) -> float:
        """Share of ``engine`` busy time attributed to source op ``src``."""
        return self.timeline.src_share(src, engine)

    @property
    def softmax_tpc_share(self) -> float:
        """Softmax's share of TPC busy time (Fig 4: > 80%)."""
        return self.src_share("softmax", EngineKind.TPC)

    @property
    def peak_hbm_bytes(self) -> int:
        """Planned peak HBM footprint."""
        return self.schedule.memory.peak_bytes

    # -- HBM contention metrics ----------------------------------------------

    @property
    def contention_stall_us(self) -> float:
        """Total time ops waited on the shared HBM beyond their
        uncontended drain (0.0 when profiled with contention off)."""
        return sum(ev.contention_stall_us for ev in self.timeline.events)

    @property
    def contended_op_count(self) -> int:
        """Number of ops that lost measurable time to HBM sharing."""
        return sum(
            1 for ev in self.timeline.events
            if ev.contention_stall_us > 1e-9
        )

    @property
    def contention_stall_fraction(self) -> float:
        """Aggregate stall as a fraction of the makespan."""
        if self.total_time_us <= 0:
            return 0.0
        return self.contention_stall_us / self.total_time_us

    def scope_breakdown(self, *, depth: int = 2) -> list[tuple[str, float, float]]:
        """Busy time per scope prefix: (scope, busy_us, share).

        ``depth`` truncates dotted scopes ("bert.encoder.layer0.attn" at
        depth 2 -> "bert.encoder"); backward ops group under "bwd".
        Sorted by busy time, descending. Shares are of total busy time
        across engines (they sum to ~1, not to the makespan).
        """
        busy: dict[str, float] = {}
        for ev in self.timeline.events:
            if ev.engine not in (EngineKind.MME, EngineKind.TPC):
                continue
            parts = [p for p in ev.scope.split(".") if p]
            key = ".".join(parts[:depth]) if parts else "(top)"
            busy[key] = busy.get(key, 0.0) + ev.dur_us
        total = sum(busy.values())
        if total <= 0:
            return []
        return sorted(
            ((scope, us, us / total) for scope, us in busy.items()),
            key=lambda row: row[1],
            reverse=True,
        )

    def summary(self) -> str:
        """Multi-line human-readable profile summary."""
        pairs = [
            ("graph", self.graph_name),
            ("total time", fmt_time_us(self.total_time_us)),
            ("ops scheduled", len(self.schedule)),
            ("MME utilization", f"{self.utilization(EngineKind.MME):.1%}"),
            ("TPC utilization", f"{self.utilization(EngineKind.TPC):.1%}"),
            ("DMA utilization", f"{self.utilization(EngineKind.DMA):.1%}"),
            ("peak HBM", fmt_bytes(self.peak_hbm_bytes)),
            ("HBM contention stall", fmt_time_us(self.contention_stall_us)),
            ("ops stalled by contention", self.contended_op_count),
        ]
        shares = sorted(
            self.timeline.busy_by_src(EngineKind.TPC).items(),
            key=lambda kv: kv[1],
            reverse=True,
        )[:5]
        for src, busy in shares:
            pairs.append((f"TPC busy: {src}", fmt_time_us(busy)))
        return render_kv(pairs, title=f"profile of {self.graph_name!r}")


class SynapseProfiler:
    """Compile a graph and profile its execution on a fresh device."""

    def __init__(
        self,
        config: GaudiConfig | None = None,
        options: CompilerOptions | None = None,
    ):
        self.options = options or CompilerOptions()
        self.compiler = GraphCompiler(config, self.options)
        # the compiler resolved options.backend and coerced the config,
        # so a profiler built with a GaudiConfig retargets cleanly
        self.backend = self.compiler.backend
        self.config = self.compiler.config

    def compile(self, graph: Graph) -> Schedule:
        """Compile only (exposed for schedule inspection in tests)."""
        return self.compiler.compile(graph)

    def profile(
        self, graph: Graph, *, device: GaudiDevice | None = None
    ) -> ProfileResult:
        """Compile + execute ``graph``; returns a t=0-normalized result."""
        schedule = self.compiler.compile(graph)
        device = device or self.backend.make_device(self.config)
        runtime = Runtime(device)
        result = runtime.execute(schedule, **self.options.runtime_kwargs())
        timeline = result.timeline.shifted(-result.start_offset_us)
        return ProfileResult(
            graph_name=graph.name,
            timeline=timeline,
            schedule=schedule,
            total_time_us=result.total_time_us,
            cache_hit=self.compiler.last_cache_hit,
        )

    def profile_repeated(
        self,
        graph: Graph,
        iterations: int,
        *,
        device: GaudiDevice | None = None,
        compile_us_per_op: float = 40.0,
    ) -> list[ProfileResult]:
        """Profile ``iterations`` back-to-back executions.

        Every iteration compiles through the recipe cache: the first
        compile misses and is preceded by a host graph-compilation
        event sized proportionally to the schedule; subsequent
        iterations hit the cache and replay the compiled recipe with no
        compilation cost (SynapseAI compiles a graph once and replays
        it). With ``use_recipe_cache`` off, only iteration 1 is charged
        — matching the pre-cache behaviour. Each returned result is
        normalized to its own start.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        device = device or self.backend.make_device(self.config)
        runtime = Runtime(device)
        results: list[ProfileResult] = []
        for i in range(iterations):
            schedule = self.compiler.compile(graph)
            if self.options.use_recipe_cache:
                fresh_compile = not self.compiler.last_cache_hit
            else:
                fresh_compile = i == 0
            if fresh_compile and compile_us_per_op > 0:
                compile_us = compile_us_per_op * len(schedule)
                start = device.now
                compile_event = TraceEvent(
                    "graph_compile", self.backend.host_engine,
                    start, compile_us, src="compile",
                )
                # the first iteration waits for compilation: the device
                # starts no op before it ends
                device.now = start + compile_us
            else:
                compile_event = None
            result = runtime.execute(
                schedule, **self.options.runtime_kwargs()
            )
            start = (
                compile_event.start_us if compile_event is not None
                else result.start_offset_us
            )
            timeline = result.timeline
            if compile_event is not None:
                timeline = Timeline(
                    [compile_event] + list(timeline.events),
                    name=timeline.name,
                )
            timeline = timeline.shifted(-start)
            results.append(ProfileResult(
                graph_name=graph.name,
                timeline=timeline,
                schedule=schedule,
                total_time_us=timeline.total_time_us,
                cache_hit=self.compiler.last_cache_hit,
            ))
        return results
