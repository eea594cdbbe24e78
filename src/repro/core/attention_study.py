"""Figures 4-6: Transformer-layer profiling per attention variant.

Reproduces §3.3's layer study at the paper's shapes (sequence 2048,
batch 128, 6 heads, head dim 64):

* Fig 4 — softmax attention: softmax > 80% of TPC busy time, large MME
  idle gaps;
* Fig 5 — Linear Transformer (elu+1): ~30 ms, ~6x over softmax, good
  MME/TPC overlap;
* Fig 6 — Performer/FAVOR: ~80 ms, ~2x over softmax, with a residual
  MME blank while the TPC grinds through the q'/k' exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import ht
from ..hw.config import GaudiConfig
from ..hw.costmodel import EngineKind
from ..models import TransformerLayer, paper_layer_config
from ..synapse import (
    CompilerOptions,
    ProfileResult,
    SynapseProfiler,
    ascii_timeline,
)
from ..synapse import disable_passes as _disable_passes
from .insights import describe_insights, gap_overlap_fraction
from .reference import (
    FIG4_SOFTMAX_TPC_SHARE_MIN,
    FIG5_LINEAR_SPEEDUP,
    FIG5_LINEAR_TOTAL_MS,
    FIG6_PERFORMER_SPEEDUP,
    FIG6_PERFORMER_TOTAL_MS,
    LAYER_STUDY_SHAPES,
    ShapeCheck,
    ratio_check,
    threshold_check,
)


def profile_layer(
    kind: str,
    *,
    feature_map: str = "elu1",
    config: GaudiConfig | None = None,
    options: CompilerOptions | None = None,
    batch: int | None = None,
    seq_len: int | None = None,
    include_backward: bool = False,
    disable_passes: tuple[str, ...] = (),
) -> ProfileResult:
    """Profile one Transformer layer at the paper's §3.3 shapes.

    ``disable_passes`` names compiler passes to turn off (see
    :data:`~repro.synapse.PASS_OPTION_FLAGS`) — the per-pass ablation
    hook used by ``run_pass_toggle_ablation``.
    """
    shapes = LAYER_STUDY_SHAPES
    batch = batch or shapes["batch"]
    seq_len = seq_len or shapes["seq_len"]
    if disable_passes:
        options = _disable_passes(
            options or CompilerOptions(), *disable_passes
        )
    layer_cfg = paper_layer_config(kind, feature_map=feature_map)
    layer = TransformerLayer(layer_cfg, materialize=False)
    with ht.record(f"layer-{kind}-{feature_map}", mode="symbolic") as rec:
        x = ht.input_tensor(
            (batch, seq_len, layer_cfg.d_model), name="x",
            requires_grad=include_backward,
        )
        out = layer(x)
        if include_backward:
            out.sum().backward()
    profiler = SynapseProfiler(config or GaudiConfig(), options)
    return profiler.profile(rec.graph)


@dataclass
class AttentionStudyResult:
    """Figures 4, 5 and 6 together."""

    softmax: ProfileResult
    linear: ProfileResult
    performer: ProfileResult

    @property
    def linear_speedup(self) -> float:
        """Fig 5's headline: softmax time / linear time."""
        return self.softmax.total_time_us / self.linear.total_time_us

    @property
    def performer_speedup(self) -> float:
        """Fig 6's headline: softmax time / Performer time."""
        return self.softmax.total_time_us / self.performer.total_time_us

    def checks(self) -> list[ShapeCheck]:
        """The §3.3 qualitative claims."""
        out = [
            threshold_check(
                "fig4: softmax share of TPC busy time",
                self.softmax.softmax_tpc_share,
                FIG4_SOFTMAX_TPC_SHARE_MIN,
            ),
            threshold_check(
                "fig4: MME idle fraction is large",
                self.softmax.mme_idle_fraction, 0.30,
            ),
            ShapeCheck(
                "fig4: MME idles while TPC runs softmax",
                gap_overlap_fraction(
                    self.softmax.timeline, EngineKind.MME, EngineKind.TPC
                ) > 0.8,
                f"{gap_overlap_fraction(self.softmax.timeline, EngineKind.MME, EngineKind.TPC):.1%}",
                "> 80%",
            ),
            ratio_check(
                "fig5: linear Transformer total (ms)",
                self.linear.total_time_ms, FIG5_LINEAR_TOTAL_MS, 0.40,
            ),
            ratio_check(
                "fig5: linear speedup over softmax",
                self.linear_speedup, FIG5_LINEAR_SPEEDUP, 0.35,
            ),
            threshold_check(
                "fig5: linear attention keeps MME busy (idle small)",
                self.linear.mme_idle_fraction, 0.30, upper=True,
            ),
            ratio_check(
                "fig6: Performer total (ms)",
                self.performer.total_time_ms, FIG6_PERFORMER_TOTAL_MS, 0.40,
            ),
            ratio_check(
                "fig6: Performer speedup over softmax",
                self.performer_speedup, FIG6_PERFORMER_SPEEDUP, 0.60,
            ),
            ShapeCheck(
                "fig6: Performer slower than linear (exp serialization)",
                self.performer.total_time_us > 1.2 * self.linear.total_time_us,
                f"{self.performer.total_time_ms:.1f} ms vs "
                f"{self.linear.total_time_ms:.1f} ms",
                "performer > 1.2x linear",
            ),
            ShapeCheck(
                "fig6: Performer MME idle exceeds linear's",
                self.performer.mme_idle_fraction > self.linear.mme_idle_fraction,
                f"{self.performer.mme_idle_fraction:.1%} vs "
                f"{self.linear.mme_idle_fraction:.1%}",
                "performer > linear",
            ),
        ]
        return out

    def render(self, *, width: int = 100) -> str:
        """All three 'figures' as ASCII timelines + narratives."""
        blocks = []
        for fig, res in (("Figure 4 (softmax attention)", self.softmax),
                         ("Figure 5 (linear Transformer)", self.linear),
                         ("Figure 6 (Performer/FAVOR)", self.performer)):
            blocks.append(f"== {fig}: total {res.total_time_ms:.2f} ms ==")
            blocks.append(ascii_timeline(res.timeline, width=width))
            blocks.append(describe_insights(res.timeline))
            blocks.append("")
        return "\n".join(blocks)


def run_attention_study(
    options: CompilerOptions | None = None,
    *,
    include_backward: bool = False,
) -> AttentionStudyResult:
    """Profile the three §3.3 attention variants."""
    return AttentionStudyResult(
        softmax=profile_layer("softmax", options=options,
                              include_backward=include_backward),
        linear=profile_layer("linear", options=options,
                             include_backward=include_backward),
        performer=profile_layer("performer", options=options,
                                include_backward=include_backward),
    )
