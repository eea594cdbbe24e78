"""Ablations over the design choices DESIGN.md calls out.

* A1 — runtime reordering: what if the GraphCompiler "detect[ed] the
  independence" (§3.3) and issued any ready op? In-order issue vs the
  lookahead scheduler (Performer shapes).
* A2 — elementwise fusion on/off (layer shapes).
* A3 — TPC core count sweep: how the softmax bottleneck scales with
  cluster width.
* A5 — the §5 future-work extension: chunked (local) attention vs the
  softmax baseline across sequence lengths.
* A10 — per-pass toggles: compile the same layer with each disableable
  GraphCompiler pass turned off in isolation and compare against the
  full pipeline (the inspectability the pass refactor exists for).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hw.backend import get_backend
from ..hw.config import GaudiConfig
from ..hw.costmodel import EngineKind
from ..synapse import CompilerOptions, ProfileResult
from ..util.tabulate import render_table
from .attention_study import profile_layer
from .reference import (
    FIG4_SOFTMAX_TPC_SHARE_MIN,
    ShapeCheck,
    threshold_check,
)


# -- A1: reorder -----------------------------------------------------------------


@dataclass
class ReorderAblationResult:
    """In-order vs reordered issue for a given attention kind."""

    kind: str
    in_order: ProfileResult
    reordered: ProfileResult
    #: the backend's matmul engine, whose idle share the table reports
    engine: EngineKind = EngineKind.MME

    @property
    def improvement(self) -> float:
        """Relative makespan reduction from reordering."""
        return 1.0 - self.reordered.total_time_us / self.in_order.total_time_us

    def checks(self) -> list[ShapeCheck]:
        """Reordering never hurts; gains are bounded by the TPC serial
        work (reordering cannot create MME work, see EXPERIMENTS.md)."""
        return [
            ShapeCheck(
                f"ablation-reorder [{self.kind}]: reordering never slower",
                self.reordered.total_time_us
                <= self.in_order.total_time_us * 1.001,
                f"{self.reordered.total_time_ms:.2f} ms vs "
                f"{self.in_order.total_time_ms:.2f} ms",
                "reordered <= in-order",
            ),
        ]

    def render(self) -> str:
        """Comparison summary."""
        return render_table(
            ["issue mode", "total (ms)", f"{self.engine.value} idle"],
            [
                ("in-order", self.in_order.total_time_ms,
                 f"{self.in_order.idle_fraction(self.engine):.1%}"),
                ("reordered", self.reordered.total_time_ms,
                 f"{self.reordered.idle_fraction(self.engine):.1%}"),
            ],
            title=f"A1: issue-order ablation ({self.kind} attention)",
        )


def run_reorder_ablation(
    kind: str = "performer", *, options: CompilerOptions | None = None
) -> ReorderAblationResult:
    """Profile one layer in order and under the lookahead scheduler."""
    base = options or CompilerOptions()

    def profile(scheduler: str) -> ProfileResult:
        return profile_layer(kind, options=replace(base, scheduler=scheduler))

    return ReorderAblationResult(
        kind=kind, in_order=profile("inorder"), reordered=profile("lookahead"),
        engine=get_backend(base.backend).matmul_engine,
    )


# -- A2: fusion ---------------------------------------------------------------------


@dataclass
class FusionAblationResult:
    """Elementwise fusion on vs off."""

    kind: str
    fused: ProfileResult
    unfused: ProfileResult

    @property
    def speedup(self) -> float:
        """unfused / fused makespan."""
        return self.unfused.total_time_us / self.fused.total_time_us

    def checks(self) -> list[ShapeCheck]:
        """Fusion must help (less HBM traffic) and shrink the schedule."""
        return [
            threshold_check(
                f"ablation-fusion [{self.kind}]: fusion speedup", self.speedup,
                1.0,
            ),
            ShapeCheck(
                f"ablation-fusion [{self.kind}]: fewer scheduled ops",
                len(self.fused.schedule) < len(self.unfused.schedule),
                f"{len(self.fused.schedule)} vs {len(self.unfused.schedule)}",
                "fused < unfused",
            ),
            ShapeCheck(
                f"ablation-fusion [{self.kind}]: smaller peak HBM",
                self.fused.peak_hbm_bytes <= self.unfused.peak_hbm_bytes,
                f"{self.fused.peak_hbm_bytes} vs {self.unfused.peak_hbm_bytes}",
                "fused <= unfused",
            ),
        ]

    def render(self) -> str:
        """Comparison summary."""
        return render_table(
            ["fusion", "total (ms)", "ops", "peak HBM (GiB)"],
            [
                ("on", self.fused.total_time_ms, len(self.fused.schedule),
                 self.fused.peak_hbm_bytes / (1 << 30)),
                ("off", self.unfused.total_time_ms, len(self.unfused.schedule),
                 self.unfused.peak_hbm_bytes / (1 << 30)),
            ],
            title=f"A2: elementwise-fusion ablation ({self.kind} attention)",
        )


def run_fusion_ablation(
    kind: str = "softmax", *, options: CompilerOptions | None = None
) -> FusionAblationResult:
    """Profile one layer with fusion on and off."""
    base = options or CompilerOptions()
    return FusionAblationResult(
        kind=kind,
        fused=profile_layer(
            kind, options=replace(base, fuse_elementwise=True)
        ),
        unfused=profile_layer(
            kind, options=replace(base, fuse_elementwise=False)
        ),
    )


# -- A3: TPC core sweep -------------------------------------------------------------


@dataclass
class TpcCoreSweepResult:
    """Softmax-attention layer time vs TPC core count."""

    core_counts: list[int]
    total_ms: list[float]
    softmax_share: list[float]

    def checks(self) -> list[ShapeCheck]:
        """More cores -> faster, with diminishing returns past the
        memory-bound regime."""
        mono = all(a >= b for a, b in zip(self.total_ms, self.total_ms[1:]))
        first_gain = self.total_ms[0] / self.total_ms[1]
        last_gain = self.total_ms[-2] / self.total_ms[-1]
        return [
            ShapeCheck(
                "ablation-tpc-cores: time non-increasing with cores",
                mono, "monotone" if mono else "non-monotone", "monotone",
            ),
            ShapeCheck(
                "ablation-tpc-cores: diminishing returns",
                first_gain >= last_gain,
                f"{first_gain:.2f}x then {last_gain:.2f}x",
                "early doubling helps more",
            ),
        ]

    def render(self) -> str:
        """Sweep table."""
        return render_table(
            ["TPC cores", "layer total (ms)", "softmax share of TPC"],
            [
                (c, t, f"{s:.1%}")
                for c, t, s in zip(self.core_counts, self.total_ms,
                                   self.softmax_share)
            ],
            title="A3: TPC core-count sweep (softmax attention layer)",
        )


def run_tpc_core_sweep(
    core_counts: tuple[int, ...] = (2, 4, 8, 16),
    *,
    options: CompilerOptions | None = None,
) -> TpcCoreSweepResult:
    """Profile the Fig 4 layer under different cluster widths."""
    result = TpcCoreSweepResult([], [], [])
    for cores in core_counts:
        res = profile_layer(
            "softmax", config=GaudiConfig().with_tpc_cores(cores),
            options=options,
        )
        result.core_counts.append(cores)
        result.total_ms.append(res.total_time_ms)
        result.softmax_share.append(res.softmax_tpc_share)
    return result


# -- A10: per-pass toggles -----------------------------------------------------


@dataclass
class PassToggleAblationResult:
    """One layer compiled with each pipeline pass disabled in turn."""

    kind: str
    feature_map: str
    baseline: ProfileResult
    #: pass name -> profile with (only) that pass disabled
    toggled: dict[str, ProfileResult] = field(default_factory=dict)

    def checks(self) -> list[ShapeCheck]:
        """Each toggle moves the schedule the way its pass promises."""
        base = self.baseline
        fusion_off = self.toggled["elementwise_fusion"]
        views_off = self.toggled["view_elision"]
        dma_off = self.toggled["dma_staging"]
        rec_off = self.toggled["recompile_injection"]
        return [
            ShapeCheck(
                "ablation-passes: fusion off is never faster",
                base.total_time_us <= fusion_off.total_time_us * 1.001,
                f"{base.total_time_ms:.2f} ms vs "
                f"{fusion_off.total_time_ms:.2f} ms",
                "baseline <= fusion-off",
            ),
            ShapeCheck(
                "ablation-passes: view elision off schedules more ops",
                len(views_off.schedule) > len(base.schedule),
                f"{len(views_off.schedule)} vs {len(base.schedule)}",
                "views-off > baseline",
            ),
            ShapeCheck(
                "ablation-passes: DMA staging off removes all transfers",
                dma_off.schedule.stats.get("dma_transfers") == 0
                and base.schedule.stats.get("dma_transfers", 0) > 0,
                f"{dma_off.schedule.stats.get('dma_transfers')} vs "
                f"{base.schedule.stats.get('dma_transfers')}",
                "0 after toggle, > 0 before",
            ),
            ShapeCheck(
                "ablation-passes: recompile injection off removes stalls",
                rec_off.schedule.stats.get("recompilations") == 0
                and base.schedule.stats.get("recompilations", 0) > 0,
                f"{rec_off.schedule.stats.get('recompilations')} vs "
                f"{base.schedule.stats.get('recompilations')}",
                "0 after toggle, > 0 before",
            ),
        ]

    def render(self) -> str:
        """Per-toggle comparison table."""
        rows = [(
            "(none)", self.baseline.total_time_ms,
            len(self.baseline.schedule),
            self.baseline.schedule.stats.get("dma_transfers", 0),
            self.baseline.schedule.stats.get("recompilations", 0),
        )]
        for name, res in sorted(self.toggled.items()):
            rows.append((
                name, res.total_time_ms, len(res.schedule),
                res.schedule.stats.get("dma_transfers", 0),
                res.schedule.stats.get("recompilations", 0),
            ))
        return render_table(
            ["disabled pass", "total (ms)", "ops", "DMA", "recompiles"],
            rows,
            title=f"A10: per-pass toggle ablation ({self.kind} attention, "
                  f"{self.feature_map} feature map)",
        )


def run_pass_toggle_ablation(
    kind: str = "linear",
    *,
    feature_map: str = "glu",
    options: CompilerOptions | None = None,
) -> PassToggleAblationResult:
    """Profile one layer with each disableable pass off in isolation.

    The default workload (linear attention with the GLU feature map) is
    the §3.3 worst case: it exercises fusion, view elision, DMA staging
    *and* the GLU recompilation stall, so every toggle has something to
    change. Lowering/validation/memory-planning toggles are structural
    (lowering off rejects composites outright) and are exercised by the
    pass-pipeline tests instead.
    """
    shapes = dict(batch=8, seq_len=256)
    result = PassToggleAblationResult(
        kind=kind,
        feature_map=feature_map,
        baseline=profile_layer(kind, feature_map=feature_map,
                               options=options, **shapes),
    )
    for name in ("elementwise_fusion", "view_elision", "dma_staging",
                 "recompile_injection"):
        result.toggled[name] = profile_layer(
            kind, feature_map=feature_map, options=options,
            disable_passes=(name,), **shapes,
        )
    return result


# -- A5: chunked attention extension ---------------------------------------------------


@dataclass
class ChunkedAttentionResult:
    """Softmax vs chunked attention across sequence lengths."""

    seq_lens: list[int]
    softmax_ms: list[float] = field(default_factory=list)
    chunked_ms: list[float] = field(default_factory=list)

    def speedups(self) -> list[float]:
        """Per-length chunked speedup."""
        return [s / c for s, c in zip(self.softmax_ms, self.chunked_ms)]

    def checks(self) -> list[ShapeCheck]:
        """The extension's claim: chunking helps more at longer N."""
        sp = self.speedups()
        return [
            threshold_check(
                "ext-chunked: speedup at the longest sequence", sp[-1], 1.5,
            ),
            ShapeCheck(
                "ext-chunked: speedup grows with sequence length",
                sp == sorted(sp),
                " -> ".join(f"{s:.1f}x" for s in sp),
                "monotone growth",
            ),
        ]

    def render(self) -> str:
        """Sweep table."""
        return render_table(
            ["seq len", "softmax (ms)", "chunked (ms)", "speedup"],
            [
                (n, s, c, f"{s / c:.2f}x")
                for n, s, c in zip(self.seq_lens, self.softmax_ms,
                                   self.chunked_ms)
            ],
            title="A5: chunked (local) attention vs softmax across "
                  "sequence lengths",
        )


# -- A6: pipelined exact attention -------------------------------------------


@dataclass
class PipelinedAttentionResult:
    """Monolithic vs software-pipelined exact softmax attention."""

    baseline: ProfileResult
    pipelined: ProfileResult
    chunk_size: int

    @property
    def speedup(self) -> float:
        """baseline / pipelined makespan."""
        return self.baseline.total_time_us / self.pipelined.total_time_us

    def checks(self) -> list[ShapeCheck]:
        """The extension's claims: same math, better overlap."""
        return [
            threshold_check(
                "ext-pipelined: exact attention speedup", self.speedup, 1.15,
            ),
            ShapeCheck(
                "ext-pipelined: MME idle fraction shrinks",
                self.pipelined.mme_idle_fraction
                < self.baseline.mme_idle_fraction - 0.05,
                f"{self.pipelined.mme_idle_fraction:.1%} vs "
                f"{self.baseline.mme_idle_fraction:.1%}",
                "pipelined < baseline - 5pp",
            ),
            ShapeCheck(
                "ext-pipelined: softmax still fully on the TPC",
                self.pipelined.softmax_tpc_share > 0.5,
                f"{self.pipelined.softmax_tpc_share:.1%}",
                "> 50% of TPC busy",
            ),
        ]

    def render(self) -> str:
        """Comparison summary."""
        return render_table(
            ["attention", "total (ms)", "MME idle", "softmax TPC share"],
            [
                ("softmax (monolithic)", self.baseline.total_time_ms,
                 f"{self.baseline.mme_idle_fraction:.1%}",
                 f"{self.baseline.softmax_tpc_share:.1%}"),
                (f"pipelined (chunk {self.chunk_size})",
                 self.pipelined.total_time_ms,
                 f"{self.pipelined.mme_idle_fraction:.1%}",
                 f"{self.pipelined.softmax_tpc_share:.1%}"),
            ],
            title="A6: software-pipelined exact softmax attention "
                  f"({self.speedup:.2f}x)",
        )


# -- A11: HBM bandwidth contention on/off -------------------------------------


@dataclass
class ContentionRow:
    """One workload timed under both memory models."""

    name: str
    contended: ProfileResult
    uncontended: ProfileResult

    @property
    def slowdown(self) -> float:
        """Contended / uncontended makespan (>= 1 by construction)."""
        return (
            self.contended.total_time_us / self.uncontended.total_time_us
        )


@dataclass
class HbmContentionAblationResult:
    """The shared-HBM model's effect across the paper's workloads.

    Re-times the Fig 4-9 workloads plus the overlap-heavy extensions
    (the Performer under the greedy ``reorder`` scheduler, A6's
    pipelined attention) with HBM contention on and off. The compiled
    schedule is identical in both runs — only the runtime's memory
    model changes — so every delta is attributable to bandwidth
    sharing.
    """

    rows: list[ContentionRow] = field(default_factory=list)

    def row(self, name: str) -> ContentionRow:
        """Look up one workload's pair by name."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no contention row named {name!r}")

    def checks(self) -> list[ShapeCheck]:
        """Contention can only stretch, must bite where phases overlap,
        and must not break the paper-shape claims."""
        worst = max(self.rows, key=lambda r: r.slowdown)
        overlap_heavy = [
            self.row(n) for n in ("pipelined attention (A6)",
                                  "performer + reorder (A1)",
                                  "GPT train step (fig8)")
        ]
        softmax = self.row("softmax layer (fig4)")
        return [
            ShapeCheck(
                "ablation-hbm: contention never speeds a workload up",
                all(r.slowdown >= 1.0 - 1e-9 for r in self.rows),
                f"min slowdown {min(r.slowdown for r in self.rows):.4f}x",
                ">= 1.0x on every workload",
            ),
            ShapeCheck(
                "ablation-hbm: overlap-heavy workloads stall on shared HBM",
                all(r.contended.contention_stall_us > 0
                    for r in overlap_heavy),
                ", ".join(
                    f"{r.name}: {r.contended.contention_stall_us:.0f} us"
                    for r in overlap_heavy
                ),
                "> 0 us stall each",
            ),
            ShapeCheck(
                "ablation-hbm: slowdown stays bounded",
                worst.slowdown <= 1.5,
                f"worst {worst.slowdown:.3f}x ({worst.name})",
                "<= 1.5x (sharing, not serialization)",
            ),
            threshold_check(
                "ablation-hbm: Fig 4 softmax TPC share survives contention",
                softmax.contended.softmax_tpc_share,
                FIG4_SOFTMAX_TPC_SHARE_MIN,
            ),
        ]

    def render(self) -> str:
        """Per-workload comparison table."""
        return render_table(
            ["workload", "no contention (ms)", "contended (ms)",
             "slowdown", "stall (us)", "ops stalled"],
            [
                (
                    r.name,
                    f"{r.uncontended.total_time_ms:.2f}",
                    f"{r.contended.total_time_ms:.2f}",
                    f"{r.slowdown:.3f}x",
                    f"{r.contended.contention_stall_us:.1f}",
                    r.contended.contended_op_count,
                )
                for r in self.rows
            ],
            title="A11: shared-HBM bandwidth contention on/off",
        )


def _contention_pair(
    graph, options: CompilerOptions | None, *, scheduler: str = "inorder"
) -> tuple[ProfileResult, ProfileResult]:
    """Compile once, execute under both memory models.

    ``hbm_contention`` is runtime-only, so the two runs share one
    compiled schedule (and one compile cost); each executes on a fresh
    device so the timelines are independent.
    """
    from ..hw.device import GaudiDevice
    from ..synapse import Runtime, SynapseProfiler

    schedule = SynapseProfiler(options=options).compile(graph)
    out = []
    for contention in (True, False):
        result = Runtime(GaudiDevice()).execute(
            schedule, scheduler=scheduler, hbm_contention=contention
        )
        timeline = result.timeline.shifted(-result.start_offset_us)
        out.append(ProfileResult(
            graph_name=graph.name,
            timeline=timeline,
            schedule=schedule,
            total_time_us=result.total_time_us,
        ))
    return out[0], out[1]


def _layer_graph(kind: str, *, feature_map: str = "elu1",
                 batch: int | None = None, seq_len: int | None = None):
    """Record one §3.3 Transformer-layer graph at the study shapes."""
    from .. import ht
    from ..models import TransformerLayer, paper_layer_config
    from .reference import LAYER_STUDY_SHAPES

    batch = batch or LAYER_STUDY_SHAPES["batch"]
    seq_len = seq_len or LAYER_STUDY_SHAPES["seq_len"]
    layer_cfg = paper_layer_config(kind, feature_map=feature_map)
    layer = TransformerLayer(layer_cfg, materialize=False)
    with ht.record(f"layer-{kind}-{feature_map}", mode="symbolic") as rec:
        layer(ht.input_tensor((batch, seq_len, layer_cfg.d_model), name="x"))
    return rec.graph


def run_hbm_contention_ablation(
    *, options: CompilerOptions | None = None
) -> HbmContentionAblationResult:
    """Re-run the Fig 4-9 + A1/A6 workloads with contention on/off."""
    from .e2e_llm import record_training_step

    result = HbmContentionAblationResult()

    # the "(A1)" row runs the greedy scheduler, not A1's lookahead
    workloads: list[tuple[str, object, str]] = [
        ("softmax layer (fig4)", _layer_graph("softmax"), "inorder"),
        ("linear layer (fig5)", _layer_graph("linear"), "inorder"),
        ("performer layer (fig6)", _layer_graph("performer"), "inorder"),
        ("GLU activation layer (fig7)",
         _layer_graph("linear", feature_map="glu", batch=8, seq_len=256),
         "inorder"),
        ("GPT train step (fig8)",
         record_training_step("gpt").graph, "inorder"),
        ("BERT train step (fig9)",
         record_training_step("bert").graph, "inorder"),
        ("performer + reorder (A1)", _layer_graph("performer"), "reorder"),
        ("pipelined attention (A6)", _layer_graph("pipelined"), "inorder"),
    ]
    for name, graph, scheduler in workloads:
        contended, uncontended = _contention_pair(
            graph, options, scheduler=scheduler
        )
        result.rows.append(ContentionRow(name, contended, uncontended))
    return result


def run_pipelined_attention_study(
    *, chunk_size: int = 256, options: CompilerOptions | None = None
) -> PipelinedAttentionResult:
    """Profile monolithic vs pipelined exact attention at Fig 4 shapes."""
    from .. import ht
    from ..models import TransformerLayer, paper_layer_config
    from ..synapse import SynapseProfiler

    baseline = profile_layer("softmax", options=options)
    layer_cfg = paper_layer_config("pipelined", chunk_size=chunk_size)
    layer = TransformerLayer(layer_cfg, materialize=False)
    with ht.record("pipelined", mode="symbolic") as rec:
        layer(ht.input_tensor((128, 2048, layer_cfg.d_model)))
    pipelined = SynapseProfiler(options=options).profile(rec.graph)
    return PipelinedAttentionResult(baseline, pipelined, chunk_size)


def run_chunked_attention_study(
    seq_lens: tuple[int, ...] = (512, 1024, 2048, 4096),
    *,
    chunk_size: int = 256,
    options: CompilerOptions | None = None,
) -> ChunkedAttentionResult:
    """Sweep sequence lengths for both attention layouts."""
    from .. import ht
    from ..models import TransformerLayer, paper_layer_config
    from ..synapse import SynapseProfiler

    result = ChunkedAttentionResult(list(seq_lens))
    for n in seq_lens:
        for kind, sink in (("softmax", result.softmax_ms),
                           ("chunked", result.chunked_ms)):
            layer_cfg = paper_layer_config(kind, chunk_size=chunk_size)
            layer = TransformerLayer(layer_cfg, materialize=False)
            with ht.record(f"{kind}-{n}", mode="symbolic") as rec:
                layer(ht.input_tensor((32, n, layer_cfg.d_model)))
            res = SynapseProfiler(options=options).profile(rec.graph)
            sink.append(res.total_time_ms)
    return result
