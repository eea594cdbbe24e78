"""First-class sweep harness: scenario grids as data, shared recipes.

PR-4 grew two ad-hoc ``--jobs`` fan-outs — A4's card-count sweep and
A12's bucket sweep each hand-rolled a work list, a
``ProcessPoolExecutor`` and a schedule-JSON transport. This module
generalizes that pattern into one declarative layer:

* a :class:`SweepSpec` declares the scenario grid (model x batch x
  seq x cards x policy) *as data* — either cartesian axes or an
  explicit point list — and expands it to a deterministic ordered
  list of :class:`SweepPoint`\\ s;
* :func:`run_sweep` compiles each distinct workload/options pair
  once in the parent, publishes the recipes through a shared warm
  disk cache (:class:`~repro.synapse.recipe.RecipeCache` with a
  ``save_dir``), and fans point executions out over a process pool —
  workers load recipes by signature instead of recompiling, the way
  SynapseAI replays its on-disk recipe store;
* results stream as one JSON line per point (``stream=``) the moment
  each point completes, so long sweeps are tail-able and a killed
  sweep keeps everything it finished.

The event-driven runtime is deterministic, so a sweep's rows are
byte-identical at any ``jobs`` width. A4 (`run_scaling_study`), A12
(`run_comm_overlap_ablation`), A13 (`run_overlap_scheduler_ablation`)
and A14 (`run_memory_ablation`) are all expressed on this harness;
``python -m repro sweep`` exposes it directly.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..hw.config import GaudiConfig, HLS1Config
from ..hw.device import HLS1Device
from ..synapse import (
    CompilerOptions,
    GraphCompiler,
    SynapseProfiler,
)
from ..synapse.recipe import RecipeCache, recipe_key
from ..synapse.runtime import HLS1Runtime, Runtime
from ..util.errors import ConfigError
from ..util.tabulate import render_table

#: named option bundles selectable from ``repro sweep --policy`` — the
#: grid's policy axis as data, not code
SWEEP_POLICIES: dict[str, tuple[tuple[str, Any], ...]] = {
    "default": (),
    "ddp": (("inject_collectives", True),),
    "no-overlap": (("inject_collectives", True), ("comm_overlap", False)),
    "reorder": (("scheduler", "reorder"),),
    "lookahead": (("scheduler", "lookahead"),),
    "slicing": (("scheduler", "lookahead"), ("tpc_slice_ops", True)),
}


@dataclass(frozen=True)
class SweepPoint:
    """One scenario of a sweep: workload geometry x population x policy.

    ``model`` names a workload: a training step (``"gpt"``/``"bert"``,
    see :func:`~repro.core.e2e_llm.record_training_step`) or a single
    layer profile (``"layer:<kind>"`` — softmax/linear/performer, the
    Fig. 4-6 workloads). ``overrides`` is the policy's
    :class:`~repro.synapse.CompilerOptions` delta as an ordered tuple
    of ``(field, value)`` pairs — plain data, picklable, hashable.
    """

    model: str
    batch: int | None = None
    seq_len: int | None = None
    #: cards *per box* (the HLS1Config meaning); the population is
    #: ``cards * boxes``
    cards: int = 1
    policy: str = "default"
    overrides: tuple[tuple[str, Any], ...] = ()
    #: record the training step with activation checkpointing on
    #: (the A14 workloads)
    checkpoint: bool = False
    #: HLS-1 boxes bridged by the Ethernet tier (PR-8 multi-box sweeps)
    boxes: int = 1

    def options(self, base: CompilerOptions) -> CompilerOptions:
        """The point's compiler options: ``base`` + the policy delta."""
        return dataclasses.replace(base, **dict(self.overrides))

    def workload_key(self) -> tuple:
        """What determines the recorded graph (not the options)."""
        return (self.model, self.batch, self.seq_len, self.checkpoint)

    def describe(self) -> dict:
        """The point's identity as JSON-ready scalars (JSONL header)."""
        return {
            "model": self.model,
            "batch": self.batch,
            "seq_len": self.seq_len,
            "cards": self.cards,
            "boxes": self.boxes,
            "policy": self.policy,
        }


@dataclass(frozen=True)
class SweepSpec:
    """A scenario grid declared as data.

    Either give the cartesian axes (``models x batches x seq_lens x
    cards x policies``, expanded in that nesting order) or an explicit
    ``points`` tuple for irregular sweeps (A12's baseline-plus-grid
    shape). ``executor`` picks the measurement:

    * ``"hls1"`` — compile against the HLS-1 card and execute on an
      event-driven :class:`~repro.synapse.runtime.HLS1Runtime`
      population of ``point.cards`` (A4/A12; supports ``jobs``);
    * ``"profile"`` — single-card
      :class:`~repro.synapse.SynapseProfiler` run returning a rich
      :class:`~repro.synapse.ProfileResult` per point (A13/A14;
      in-process only, since profiles do not cross the pool cheaply).
    """

    name: str
    models: tuple[str, ...] = ("gpt",)
    batches: tuple[int | None, ...] = (None,)
    seq_lens: tuple[int | None, ...] = (None,)
    cards: tuple[int, ...] = (1,)
    boxes: tuple[int, ...] = (1,)
    policies: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...] = (
        ("default", ()),
    )
    checkpoint: bool = False
    executor: str = "hls1"
    points: tuple[SweepPoint, ...] | None = None
    #: attention-kernel axis (``attention_lowering`` values): each
    #: policy is crossed with every kernel, labelled ``policy+kernel``;
    #: empty keeps the compile default (no override, no label suffix)
    attention: tuple[str, ...] = ()
    #: hardware-backend axis (``CompilerOptions.backend`` values):
    #: each policy/kernel cell is crossed with every named backend,
    #: labelled ``policy@backend``; empty keeps the compile default
    #: (gaudi, no label suffix). Non-Gaudi backends model a single
    #: device, so their points must keep ``cards == boxes == 1``.
    backend: tuple[str, ...] = ()

    def expand(self) -> list[SweepPoint]:
        """The grid as an ordered point list (explicit points win)."""
        if self.points is not None:
            return list(self.points)
        kernels: tuple[str | None, ...] = self.attention or (None,)
        backends: tuple[str | None, ...] = self.backend or (None,)
        out = []
        for model in self.models:
            for batch in self.batches:
                for seq_len in self.seq_lens:
                    for cards in self.cards:
                        for boxes in self.boxes:
                            for policy, overrides in self.policies:
                                for kernel in kernels:
                                    label = policy
                                    if kernel is not None:
                                        label = f"{policy}+{kernel}"
                                        overrides_k = overrides + (
                                            ("attention_lowering", kernel),
                                        )
                                    else:
                                        overrides_k = overrides
                                    for backend in backends:
                                        label_b = label
                                        overrides_b = overrides_k
                                        if backend is not None:
                                            label_b = f"{label}@{backend}"
                                            overrides_b = overrides_k + (
                                                ("backend", backend),
                                            )
                                        if (backend not in (None, "gaudi")
                                                and cards * boxes > 1):
                                            raise ConfigError(
                                                f"backend {backend!r} "
                                                "models a single device; "
                                                f"cards={cards} x boxes="
                                                f"{boxes} needs gaudi"
                                            )
                                        out.append(SweepPoint(
                                            model=model, batch=batch,
                                            seq_len=seq_len, cards=cards,
                                            boxes=boxes, policy=label_b,
                                            overrides=overrides_b,
                                            checkpoint=self.checkpoint,
                                        ))
        return out


@dataclass
class PointResult:
    """One executed sweep point: identity + flat numeric metrics.

    ``metrics`` is JSON-ready (it is the JSONL line's payload);
    ``profile`` carries the full ProfileResult for ``executor=
    "profile"`` sweeps run in-process, and is never serialized.
    """

    point: SweepPoint
    metrics: dict
    profile: Any = None

    def to_json(self, sweep_name: str) -> dict:
        """The point's JSONL record: sweep name, identity, metrics."""
        return {"sweep": sweep_name, **self.point.describe(),
                **self.metrics}


@dataclass
class SweepResult:
    """Every point of one sweep, in spec order."""

    spec: SweepSpec
    results: list[PointResult] = field(default_factory=list)

    def result_for(self, **attrs) -> PointResult:
        """The first point whose identity matches all ``attrs``."""
        for r in self.results:
            if all(getattr(r.point, k) == v for k, v in attrs.items()):
                return r
        raise KeyError(f"no sweep point matching {attrs}")

    def render(self) -> str:
        """A human table of the streamed metrics."""
        rows = []
        for r in self.results:
            rows.append((
                r.point.model,
                r.point.batch if r.point.batch is not None else "-",
                r.point.seq_len if r.point.seq_len is not None else "-",
                r.point.cards,
                r.point.boxes,
                r.point.policy,
                f"{r.metrics['total_time_us'] / 1000.0:.2f}",
                f"{r.metrics.get('exposed_comm_us', 0.0) / 1000.0:.2f}",
                r.metrics.get("compile", "-"),
            ))
        return render_table(
            ["model", "batch", "seq", "cards", "boxes", "policy",
             "total (ms)", "exposed comm (ms)", "recipe"],
            rows,
            title=f"sweep {self.spec.name!r} "
                  f"({len(self.results)} point(s))",
        )


# -- workload recording ------------------------------------------------------


def _workload_graph(point: SweepPoint):
    """Record the point's graph (training step or single layer)."""
    if point.model.startswith("layer:"):
        from .. import ht
        from ..models import TransformerLayer, paper_layer_config
        from .reference import LAYER_STUDY_SHAPES

        kind = point.model.split(":", 1)[1]
        batch = point.batch or LAYER_STUDY_SHAPES["batch"]
        seq_len = point.seq_len or LAYER_STUDY_SHAPES["seq_len"]
        layer_cfg = paper_layer_config(kind)
        layer = TransformerLayer(layer_cfg, materialize=False)
        with ht.record(f"layer-{kind}-elu1", mode="symbolic") as rec:
            layer(ht.input_tensor(
                (batch, seq_len, layer_cfg.d_model), name="x",
            ))
        return rec.graph
    from .e2e_llm import record_training_step

    kwargs: dict = {"checkpoint": point.checkpoint}
    if point.batch is not None:
        kwargs["batch"] = point.batch
    if point.seq_len is not None:
        kwargs["seq_len"] = point.seq_len
    return record_training_step(point.model, **kwargs).graph


# -- executors ---------------------------------------------------------------


def _hls1_metrics(
    schedule, hls1: HLS1Config, options: CompilerOptions, cards: int,
    boxes: int = 1,
) -> dict:
    """Execute one schedule on ``boxes`` boxes of ``cards`` cards.

    The runtime-only options (``scheduler``, ``hbm_contention``)
    apply exactly as in a profiler run. A non-Gaudi backend has no
    multi-card system model: its points (already validated to
    ``cards == boxes == 1``) execute on that backend's single device
    instead of the HLS-1 population.
    """
    if options.backend != "gaudi":
        from ..hw.backend import get_backend

        b = get_backend(options.backend)
        runtime = Runtime(b.make_device(b.default_config()))
    else:
        runtime = HLS1Runtime(HLS1Device(
            dataclasses.replace(hls1, num_cards=cards, boxes=boxes)
        ))
    res = runtime.execute(schedule, **options.runtime_kwargs())
    metrics = {
        "total_time_us": res.total_time_us,
        "exposed_comm_us": res.exposed_comm_us,
        "fabric_busy_us": res.fabric_busy_us,
        "gradient_bytes": int(schedule.stats.get("gradient_bytes", 0)),
        "all_reduce_ops": sum(
            1 for op in schedule.ops if op.src == "all_reduce"
        ),
    }
    reuse = schedule.stats.get("incremental")
    if reuse:
        metrics["passes_reused"] = reuse["reused"]
        metrics["passes_recomputed"] = reuse["recomputed"]
    return metrics


def _sweep_worker(payload) -> dict:
    """Process-pool worker for ``executor="hls1"`` points.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle it. The parent already compiled and published every
    distinct recipe to the shared ``recipe_dir``, so the signature
    lookup is a warm disk hit and the worker never re-runs the
    compiler; if the blob is missing anyway (cold cache, eviction,
    ``use_recipe_cache=False``) the worker records and compiles the
    point itself — correct either way, because the runtime is
    deterministic.
    """
    point, hls1, options, recipe_dir, key = payload
    cache = RecipeCache(save_dir=recipe_dir)
    schedule = cache.get(key) if recipe_dir and key else None
    source = "disk" if schedule is not None else "cold"
    if schedule is None:
        compiler = GraphCompiler(hls1.card, options, cache=cache)
        schedule = compiler.compile(_workload_graph(point))
        if compiler.last_cache_hit:
            source = "disk" if cache.disk_hits else "memory"
    metrics = _hls1_metrics(
        schedule, hls1, options, point.cards, point.boxes
    )
    metrics["compile"] = source
    return metrics


def _profile_point(
    point: SweepPoint,
    config: GaudiConfig,
    options: CompilerOptions,
    graphs: dict,
) -> PointResult:
    """Single-card profile executor (A13/A14): rich results kept."""
    if point.model.startswith("layer:"):
        from .attention_study import profile_layer

        prof = profile_layer(
            point.model.split(":", 1)[1], config=config, options=options,
            batch=point.batch, seq_len=point.seq_len,
        )
    else:
        wkey = point.workload_key()
        if wkey not in graphs:
            graphs[wkey] = _workload_graph(point)
        prof = SynapseProfiler(config, options).profile(graphs[wkey])
    metrics = {
        "total_time_us": prof.total_time_us,
        "peak_bytes": prof.schedule.memory.peak_bytes,
        "compile": "memory" if prof.cache_hit else "cold",
    }
    mem = prof.schedule.stats.get("memory")
    if mem:
        metrics.update(
            spill_ops=mem["spill_ops"], spill_bytes=mem["spill_bytes"],
            recompute_ops=mem["recompute_ops"],
            recompute_bytes=mem["recompute_bytes"],
        )
    return PointResult(point=point, metrics=metrics, profile=prof)


# -- the harness -------------------------------------------------------------


def _emit(stream, spec: SweepSpec, result: PointResult) -> None:
    stream.write(json.dumps(result.to_json(spec.name)) + "\n")
    stream.flush()


def run_sweep(
    spec: SweepSpec,
    *,
    hls1: HLS1Config | None = None,
    config: GaudiConfig | None = None,
    options: CompilerOptions | None = None,
    jobs: int = 1,
    stream=None,
    recipe_dir: "str | Path | None" = None,
    graphs: dict | None = None,
) -> SweepResult:
    """Execute every point of ``spec``, streaming JSONL as they land.

    ``options`` is the base every point's policy overrides apply to
    (default: :class:`CompilerOptions` defaults). ``stream`` is a
    writable text file (or a path) receiving one JSON line per
    completed point. ``jobs > 1`` fans ``executor="hls1"`` points over
    a process pool: the parent compiles each distinct workload/options
    pair once, publishes the recipes into ``recipe_dir`` (a shared
    temporary directory when not given), and workers replay them from
    disk by signature — no worker recompiles a warm point. ``graphs``
    optionally seeds/shares the recorded-graph memo across sweeps
    (A14 records each workload once for its oracle and planned runs).
    Points run and stream in spec order at any width.
    """
    hls1 = hls1 or HLS1Config()
    base = options or CompilerOptions()
    points = spec.expand()
    if not points:
        raise ValueError(f"sweep {spec.name!r} declares no points")
    graphs = graphs if graphs is not None else {}

    opened = None
    if isinstance(stream, (str, Path)):
        opened = stream = open(stream, "w")
    try:
        if spec.executor == "profile":
            result = SweepResult(spec=spec)
            cfg = config or GaudiConfig()
            for point in points:
                pr = _profile_point(
                    point, cfg, point.options(base), graphs
                )
                if stream is not None:
                    _emit(stream, spec, pr)
                result.results.append(pr)
            return result
        if spec.executor != "hls1":
            raise ValueError(f"unknown sweep executor {spec.executor!r}")

        if jobs > 1:
            return _run_hls1_pool(
                spec, points, hls1, base, jobs, stream, recipe_dir, graphs
            )

        # serial: one shared in-memory recipe cache across the sweep,
        # so repeated (workload, options) points compile exactly once
        cache = RecipeCache(
            maxsize=max(32, len(points)), save_dir=recipe_dir
        )
        result = SweepResult(spec=spec)
        for point in points:
            opts = point.options(base)
            wkey = point.workload_key()
            if wkey not in graphs:
                graphs[wkey] = _workload_graph(point)
            disk_before = cache.disk_hits
            compiler = GraphCompiler(hls1.card, opts, cache=cache)
            schedule = compiler.compile(graphs[wkey])
            source = "cold"
            if compiler.last_cache_hit:
                source = (
                    "disk" if cache.disk_hits > disk_before else "memory"
                )
            metrics = _hls1_metrics(
                schedule, hls1, opts, point.cards, point.boxes
            )
            metrics["compile"] = source
            pr = PointResult(point=point, metrics=metrics)
            if stream is not None:
                _emit(stream, spec, pr)
            result.results.append(pr)
        return result
    finally:
        if opened is not None:
            opened.close()


def _run_hls1_pool(
    spec, points, hls1, base, jobs, stream, recipe_dir, graphs
) -> SweepResult:
    """The fan-out path: parent-warmed disk recipes, pooled workers."""
    from concurrent.futures import ProcessPoolExecutor

    tmp = None
    if recipe_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-sweep-")
        recipe_dir = tmp.name
    try:
        # warm the shared disk cache: one compile per distinct
        # workload/options pair, published by signature
        from ..hw.backend import get_backend

        cache = RecipeCache(
            maxsize=max(32, len(points)), save_dir=recipe_dir
        )
        keys: dict[SweepPoint, str | None] = {}
        compiled: set[str] = set()
        for point in points:
            opts = point.options(base)
            if not opts.use_recipe_cache:
                keys[point] = None  # the worker compiles this one
                continue
            wkey = point.workload_key()
            if wkey not in graphs:
                graphs[wkey] = _workload_graph(point)
            # key with the backend-coerced config, exactly as the
            # compiler will, so warmed recipes hit in the workers
            coerced = get_backend(
                getattr(opts, "backend", "gaudi")
            ).coerce_config(hls1.card)
            key = recipe_key(graphs[wkey], coerced, opts)
            keys[point] = key
            if key not in compiled:
                GraphCompiler(
                    hls1.card, opts, cache=cache
                ).compile(graphs[wkey])
                compiled.add(key)

        payloads = [
            (p, hls1, p.options(base), str(recipe_dir), keys[p])
            for p in points
        ]
        result = SweepResult(spec=spec)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # pool.map yields in submission order: the stream stays
            # in spec order at any width
            for point, metrics in zip(
                points, pool.map(_sweep_worker, payloads)
            ):
                pr = PointResult(point=point, metrics=metrics)
                if stream is not None:
                    _emit(stream, spec, pr)
                result.results.append(pr)
        return result
    finally:
        if tmp is not None:
            tmp.cleanup()


def _auto_layout_points(
    models: tuple[str, ...],
    batches: tuple[int | None, ...],
    seq_lens: tuple[int | None, ...],
    cards: tuple[int, ...],
    boxes: tuple[int, ...],
    options: CompilerOptions | None,
) -> tuple[SweepPoint, ...]:
    """One planner-picked point per (model, geometry, population).

    Each population is handed to :func:`~repro.core.auto_layout.
    auto_layout`, which exhaustively prices the (tp, pp, dp) grid on
    the two-tier fabric; the winning layout becomes the point's
    compiler-option overrides and its policy label
    (``auto:tp4·pp1·dp8``).
    """
    from .auto_layout import LayoutPlanner, auto_layout

    points: list[SweepPoint] = []
    for model in models:
        for batch in batches:
            for seq_len in seq_lens:
                planner_kwargs: dict[str, Any] = {}
                if batch is not None:
                    planner_kwargs["batch"] = batch
                if seq_len is not None:
                    planner_kwargs["seq_len"] = seq_len
                for per_box in cards:
                    planner = LayoutPlanner(
                        model, cards_per_box=per_box, options=options,
                        **planner_kwargs,
                    )
                    for n_boxes in boxes:
                        verdict = auto_layout(
                            model, per_box * n_boxes, planner=planner
                        )
                        layout = verdict.best.layout
                        overrides = SWEEP_POLICIES["ddp"] + (
                            ("bucket_mb", layout.bucket_mb),
                            ("tp", layout.tp),
                            ("pp", layout.pp),
                            ("microbatches", layout.microbatches),
                        )
                        points.append(SweepPoint(
                            model=model, batch=batch, seq_len=seq_len,
                            cards=per_box, boxes=n_boxes,
                            policy=f"auto:{layout.describe()}",
                            overrides=overrides,
                        ))
    return tuple(points)


def sweep_spec_from_cli(
    models: Iterable[str],
    batches: Iterable[int],
    seq_lens: Iterable[int],
    cards: Iterable[int],
    policies: Iterable[str],
    *,
    boxes: Iterable[int] = (),
    tp: int = 1,
    pp: int = 1,
    auto_layout: bool = False,
    attention: Iterable[str] = (),
    backend: Iterable[str] = (),
    options: CompilerOptions | None = None,
) -> SweepSpec:
    """Build the ``repro sweep`` grid from repeatable CLI flags.

    ``boxes`` adds the multi-box axis (cards stay *per box*); ``tp`` /
    ``pp`` shard every policy's compile with the tensor-parallel and
    pipeline-partition passes (``pp`` pins ``microbatches = pp``, the
    minimum legal fill); ``--auto-layout`` instead asks the
    auto-parallelism planner to pick ``(tp, pp, dp)`` per population
    and replaces the policy axis with the planner's verdicts;
    ``attention`` (``--attention-kernel``) adds the attention-lowering
    axis, crossing every policy with each named kernel; ``backend``
    (``--backend``) adds the hardware-backend axis (gaudi/wse) —
    non-Gaudi backends are single-device, so they require the default
    ``cards == boxes == 1`` population. ``options`` is the base the
    planner prices ``--auto-layout`` candidates under.
    """
    from ..hw.backend import get_backend
    from ..synapse.passes.attention import ATTENTION_LOWERINGS

    unknown = [p for p in policies if p not in SWEEP_POLICIES]
    if unknown:
        known = ", ".join(sorted(SWEEP_POLICIES))
        raise ConfigError(
            f"unknown sweep policy {unknown[0]!r} (known: {known})"
        )
    attention_t = tuple(attention)
    bad = [a for a in attention_t if a not in ATTENTION_LOWERINGS]
    if bad:
        raise ConfigError(
            f"unknown attention kernel {bad[0]!r} (known: "
            f"{', '.join(ATTENTION_LOWERINGS)})"
        )
    backend_t = tuple(backend)
    for name in backend_t:
        get_backend(name)  # raises ConfigError on unknown backends
    if tp < 1 or pp < 1:
        raise ConfigError(f"tp/pp must be >= 1, got tp={tp} pp={pp}")
    batches_t, seq_lens_t = tuple(batches), tuple(seq_lens)
    for flag, values in (("batch", batches_t), ("seq-len", seq_lens_t)):
        if any(v < 1 for v in values):
            raise ConfigError(f"--{flag} must be >= 1, got {min(values)}")
    if auto_layout and (tp > 1 or pp > 1):
        raise ConfigError("--auto-layout already picks tp/pp; drop "
                         "the explicit --tp/--pp flags")
    if auto_layout and attention_t:
        raise ConfigError("--auto-layout replaces the policy axis; it "
                         "cannot be crossed with --attention-kernel")
    if auto_layout and any(b != "gaudi" for b in backend_t):
        raise ConfigError("--auto-layout plans HLS-1 populations; the "
                         "backend axis must stay gaudi")
    models_t = tuple(models) or ("gpt",)
    batches_t = batches_t or (None,)
    seq_lens_t = seq_lens_t or (None,)
    cards_t = tuple(cards) or (1,)
    boxes_t = tuple(boxes) or (1,)
    if auto_layout:
        return SweepSpec(
            name="cli",
            points=_auto_layout_points(
                models_t, batches_t, seq_lens_t, cards_t, boxes_t, options
            ),
        )
    shard: tuple[tuple[str, Any], ...] = ()
    suffix = ""
    if tp > 1:
        shard += (("tp", tp),)
        suffix += f"+tp{tp}"
    if pp > 1:
        shard += (("pp", pp), ("microbatches", pp))
        suffix += f"+pp{pp}"
    named = tuple(
        (p + suffix, SWEEP_POLICIES[p] + shard) for p in policies
    ) or ((f"default{suffix}", shard),)
    return SweepSpec(
        name="cli",
        models=models_t,
        batches=batches_t,
        seq_lens=seq_lens_t,
        cards=cards_t,
        boxes=boxes_t,
        policies=named,
        attention=attention_t,
        backend=backend_t,
    )
