"""Spans around the benchmark's calls into each simulator layer.

A traced run records one span per call the benchmark makes into a
layer: its name, start, end and the span that caused it. Spans stay in
memory and are written out once, as a Chrome trace, when the run ends.
The per-layer metrics are reduced from them: a layer's *self* time is
its spans' durations minus the part their child spans cover. The time
no span covers is measured separately, from the timed intervals, so
the self times of every layer plus that time add up to the wall time
only if every top-level span lies inside a timed interval and no two
overlap.

Layers, the span that stands for each, and the call it wraps:

* ``ht`` -- ``ht.record``: recording a graph;
* ``synapse.compiler`` -- ``synapse.compile``: ``GraphCompiler.compile``;
* ``synapse.runtime`` -- ``runtime.execute``: ``HLS1Runtime.execute``;
* ``synapse.serving`` -- ``serving_runtime.measure``: a
  ``ServingRuntime.step_cost`` call that misses the geometry memo;
* ``core.serving`` -- ``serving.run``: ``ServingSimulator.run``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

#: the 13 compiler passes, in pipeline order (``Schedule.stats["passes"]``)
PASS_NAMES = (
    "validate", "attention_lowering", "tpc_slicing", "lower_composites",
    "view_elision", "elementwise_fusion", "recompile_injection",
    "dma_staging", "emit", "tensor_parallel", "collective_injection",
    "pipeline_partition", "memory_planning",
)

#: span name -> layer whose self time it counts toward
LAYER_OF_SPAN = {
    "ht.record": "ht",
    "synapse.compile": "synapse.compiler",
    "runtime.execute": "synapse.runtime",
    "serving_runtime.measure": "synapse.serving",
    "serving.run": "core.serving",
}


class Span:
    """One call into a layer; ``attrs`` carries counts taken at the call."""

    __slots__ = ("sid", "name", "start", "end", "parent", "phase", "attrs",
                 "_tracer")

    def __init__(self, sid, name, start, parent, phase, tracer=None):
        self._tracer = tracer
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.attrs: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self._tracer._close(self)
        return False


class Tracer:
    """Keeps every closed span in memory, in closing order."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> Span:
        """Open a span; use it as a context manager to close it."""
        sp = Span(self._next_id, name, time.perf_counter(),
                  self._stack[-1] if self._stack else None, self.phase, self)
        self._next_id += 1
        self._stack.append(sp.sid)
        return sp

    def _close(self, sp: Span) -> None:
        self._stack.pop()
        self.spans.append(sp)

    def adopt(self, name: str, start: float, end: float, since: int) -> None:
        """Record a span over ``[start, end]`` after the fact.

        Spans closed since index ``since`` that are direct children of
        the currently open span become children of the new one. This is
        how a memo *miss* gets its own span without paying for a span on
        every memo hit.
        """
        parent = self._stack[-1] if self._stack else None
        sp = Span(self._next_id, name, start, parent, self.phase)
        sp.end = end
        self._next_id += 1
        for child in self.spans[since:]:
            if child.parent == parent:
                child.parent = sp.sid
        self.spans.append(sp)

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace events (Perfetto loads them)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
                "args": {"id": s.sid, "parent": s.parent, "phase": s.phase,
                         **{k: v for k, v in s.attrs.items()
                            if isinstance(v, (int, float, str, bool))}},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class _NullSpan:
    """The span an untraced run hands out: records nothing."""

    __slots__ = ("attrs",)

    def __init__(self):
        self.attrs: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans cost one context-manager entry and exit."""

    enabled = False
    phase = "setup"

    def span(self, name: str) -> _NullSpan:
        return _NullSpan()


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name's suffix."""
    for suffix, unit in (("_us_per_node", "us/node"),
                         ("_us_per_op", "us/op"), ("_per_s", "1/s"),
                         ("_frac", "ratio"), ("_ratio", "ratio"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def to_reference_host(metrics: dict[str, float], scale: float) -> None:
    """Scale host times in place by ``scale`` (rates by its inverse)."""
    for name, value in metrics.items():
        unit = unit_of(name)
        if unit in ("s", "us/node", "us/op"):
            metrics[name] = value * scale
        elif unit == "1/s":
            metrics[name] = value / scale


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child_total[s.sid] for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_self_times(spans: list[Span], phase: str) -> dict[str, float]:
    """Layer -> summed self time of the phase's spans."""
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYER_OF_SPAN.values()}
    for s in spans:
        if s.phase == phase:
            out[LAYER_OF_SPAN[s.name]] += own[s.sid]
    return out


def unattributed_s(
    spans: list[Span], phase: str, windows: list[tuple[float, float]]
) -> float:
    """Time inside ``windows`` that no top-level span of the phase covers.

    Spans are clipped to the windows and time that several spans cover
    is counted once, so the result is never negative.
    """
    pieces = []
    for s in spans:
        if s.phase == phase and s.parent is None:
            for lo, hi in windows:
                a, b = max(s.start, lo), min(s.end, hi)
                if a < b:
                    pieces.append((a, b))
    covered, reach = 0.0, float("-inf")
    for a, b in sorted(pieces):
        if b > reach:
            covered += b - max(a, reach)
            reach = b
    return _wall_s(windows) - covered


def _wall_s(windows: list[tuple[float, float]]) -> float:
    return sum(hi - lo for lo, hi in windows)


def per_layer_metrics(
    spans: list[Span], windows: list[tuple[float, float]]
) -> dict[str, float]:
    """The per-layer metrics (see ``BENCHMARK.json``) of the timed phase,
    whose operations ran in ``windows``.

    All come from the timed phase except ``serving_runtime.*``, which
    cover set-up too: the serving workloads' set-up measures every step
    geometry their trace needs, so the geometry memo misses only there.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.phase == "timed":
            by_name[s.name].append(s)
    m: dict[str, float] = {}

    rec = by_name["ht.record"]
    rec_s = sum(own[s.sid] for s in rec)
    nodes = sum(s.attrs.get("nodes", 0) for s in rec)
    m["ht.record_s"] = rec_s
    m["ht.graphs"] = len(rec)
    m["ht.nodes"] = nodes
    m["ht.record_us_per_node"] = _ratio(rec_s * 1e6, nodes)

    comp = by_name["synapse.compile"]
    comp_s = sum(own[s.sid] for s in comp)
    m["synapse.compile_s"] = comp_s
    m["synapse.compiles"] = len(comp)
    m["synapse.compile_us_per_op"] = _ratio(
        comp_s * 1e6, sum(s.attrs.get("nodes", 0) for s in comp))
    pass_us = dict.fromkeys(PASS_NAMES, 0.0)
    reused = total = hits = 0
    for s in comp:
        hits += bool(s.attrs.get("recipe_hit"))
        for name, wall_us in s.attrs.get("passes", ()):
            pass_us[name] += wall_us
        reused += s.attrs.get("reused", 0)
        total += s.attrs.get("reused", 0) + s.attrs.get("recomputed", 0)
    for name, us in pass_us.items():
        m[f"synapse.pass.{name}_s"] = us / 1e6
    m["synapse.pass_replay_ratio"] = _ratio(reused, total)
    m["synapse.recipe_hit_ratio"] = _ratio(hits, len(comp))

    exe = by_name["runtime.execute"]
    exe_s = sum(own[s.sid] for s in exe)
    events = sum(s.attrs.get("events", 0) for s in exe)
    m["runtime.execute_s"] = exe_s
    m["runtime.executes"] = len(exe)
    m["runtime.events"] = events
    m["runtime.events_per_s"] = _ratio(events, exe_s)
    # first execute of a schedule pays the cost-model prep; repeats of
    # the same (schedule, system, policy) op reuse it
    first = [s for s in exe if s.attrs.get("first")]
    first_keys = {s.attrs.get("key") for s in first}
    warm = [s for s in exe
            if not s.attrs.get("first") and s.attrs.get("key") in first_keys]
    m["runtime.first_execute_s"] = _mean([own[s.sid] for s in first])
    m["runtime.warm_execute_s"] = _mean([own[s.sid] for s in warm])
    for path in ("pipelined", "lookahead", "uncontended"):
        m[f"runtime.{path}_execute_s"] = sum(
            own[s.sid] for s in exe if s.attrs.get(path))

    all_runs = [s for s in spans if s.name == "serving.run"]
    lookups = sum(s.attrs.get("lookups", 0) for s in all_runs)
    measured = sum(s.attrs.get("measured", 0) for s in all_runs)
    m["serving_runtime.lookups"] = lookups
    m["serving_runtime.measured"] = measured
    m["serving_runtime.infeasible"] = sum(
        s.attrs.get("infeasible", 0) for s in all_runs)
    m["serving_runtime.replay_ratio"] = (
        1.0 - measured / lookups if lookups else 0.0)
    m["serving_runtime.measure_s"] = sum(
        s.end - s.start for s in spans if s.name == "serving_runtime.measure")
    runs = by_name["serving.run"]
    loop_s = sum(own[s.sid] for s in runs)
    decode = sum(s.attrs.get("decode_steps", 0) for s in runs)
    prefill = sum(s.attrs.get("prefill_steps", 0) for s in runs)
    m["serving.loop_s"] = loop_s
    m["serving.decode_steps"] = decode
    m["serving.prefill_steps"] = prefill
    m["serving.steps_per_s"] = _ratio(decode + prefill, loop_s)
    m["serving.admission_rejects"] = sum(
        s.attrs.get("rejected", 0) for s in runs)

    m["trace.unattributed_frac"] = _ratio(
        unattributed_s(spans, "timed", windows), _wall_s(windows))
    return m


def setup_layer_metrics(
    spans: list[Span], windows: list[tuple[float, float]]
) -> dict[str, float]:
    """Self time of each layer during set-up, the parts of ``setup_s``."""
    selfs = layer_self_times(spans, "setup")
    m = {f"setup.{layer}_s": secs for layer, secs in selfs.items()}
    m["setup.unattributed_frac"] = _ratio(
        unattributed_s(spans, "setup", windows), _wall_s(windows))
    return m
