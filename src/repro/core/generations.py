"""Extension A7: does the MME/TPC imbalance persist on a Gaudi2?

The paper profiles first-generation Gaudi. This what-if re-runs the
Fig 4 layer and the GPT training step on a Gaudi2-like configuration
(24 TPCs, ~3x MME, 96 GB HBM2E — scaled from public generation ratios,
see :func:`repro.hw.config.gaudi2_config`) and asks the questions the
paper's findings raise:

* the absolute times drop by roughly the hardware ratio, but
* softmax is *still* TPC-only, so the architectural imbalance — and
  the case for linearized/pipelined attention — persists;
* the larger HBM lifts the batch ceiling that forced batch 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.config import GaudiConfig, gaudi2_config
from ..synapse import CompilerOptions, ProfileResult
from ..util.tabulate import render_table
from .attention_study import profile_layer
from .e2e_llm import E2EProfileResult, max_batch_that_fits, run_e2e
from .reference import ShapeCheck, threshold_check


@dataclass
class GenerationComparisonResult:
    """Gaudi1 vs Gaudi2-like results for the same workloads."""

    layer_g1: ProfileResult
    layer_g2: ProfileResult
    e2e_g1: E2EProfileResult
    e2e_g2: E2EProfileResult
    max_batch_g1: int
    max_batch_g2: int

    @property
    def layer_speedup(self) -> float:
        """Fig 4 layer: generation-over-generation speedup."""
        return self.layer_g1.total_time_us / self.layer_g2.total_time_us

    @property
    def e2e_speedup(self) -> float:
        """GPT step: generation-over-generation speedup."""
        return (self.e2e_g1.profile.total_time_us
                / self.e2e_g2.profile.total_time_us)

    def checks(self) -> list[ShapeCheck]:
        """The what-if's claims."""
        return [
            threshold_check(
                "ext-gen: Gaudi2 layer speedup roughly tracks hardware ratio",
                self.layer_speedup, 2.0,
            ),
            threshold_check(
                "ext-gen: Gaudi2 GPT-step speedup", self.e2e_speedup, 2.0,
            ),
            ShapeCheck(
                "ext-gen: softmax still dominates the TPC on Gaudi2",
                self.layer_g2.softmax_tpc_share > 0.7,
                f"{self.layer_g2.softmax_tpc_share:.1%}",
                "> 70% (the imbalance is architectural)",
            ),
            ShapeCheck(
                "ext-gen: MME still idles during softmax on Gaudi2",
                self.layer_g2.mme_idle_fraction > 0.25,
                f"{self.layer_g2.mme_idle_fraction:.1%}",
                "> 25%",
            ),
            ShapeCheck(
                "ext-gen: 96 GB HBM lifts the batch ceiling",
                self.max_batch_g2 > self.max_batch_g1,
                f"{self.max_batch_g1} -> {self.max_batch_g2}",
                "larger max batch",
            ),
        ]

    def render(self) -> str:
        """Side-by-side comparison table."""
        return render_table(
            ["metric", "Gaudi (paper)", "Gaudi2-like", "ratio"],
            [
                ("Fig4 layer (ms)", self.layer_g1.total_time_ms,
                 self.layer_g2.total_time_ms,
                 f"{self.layer_speedup:.1f}x"),
                ("softmax TPC share",
                 f"{self.layer_g1.softmax_tpc_share:.0%}",
                 f"{self.layer_g2.softmax_tpc_share:.0%}", "-"),
                ("MME idle (Fig4)",
                 f"{self.layer_g1.mme_idle_fraction:.0%}",
                 f"{self.layer_g2.mme_idle_fraction:.0%}", "-"),
                ("GPT step (ms)", self.e2e_g1.profile.total_time_ms,
                 self.e2e_g2.profile.total_time_ms,
                 f"{self.e2e_speedup:.1f}x"),
                ("GPT tokens/s", f"{self.e2e_g1.tokens_per_second:,.0f}",
                 f"{self.e2e_g2.tokens_per_second:,.0f}",
                 f"{self.e2e_g2.tokens_per_second / self.e2e_g1.tokens_per_second:.1f}x"),
                ("max batch @ seq 2048", self.max_batch_g1,
                 self.max_batch_g2,
                 f"{self.max_batch_g2 // max(1, self.max_batch_g1)}x"),
            ],
            title="A7: Gaudi vs Gaudi2-like what-if (same workloads)",
        )


def run_generation_comparison(
    options: CompilerOptions | None = None,
) -> GenerationComparisonResult:
    """Run the Fig 4 layer + GPT step on both generations."""
    g1 = GaudiConfig()
    g2 = gaudi2_config()
    return GenerationComparisonResult(
        layer_g1=profile_layer("softmax", config=g1, options=options),
        layer_g2=profile_layer("softmax", config=g2, options=options),
        e2e_g1=run_e2e("gpt", config=g1, options=options),
        e2e_g2=run_e2e("gpt", config=g2, options=options),
        max_batch_g1=max_batch_that_fits("gpt", config=g1, options=options),
        max_batch_g2=max_batch_that_fits("gpt", config=g2, options=options),
    )
