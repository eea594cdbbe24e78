"""Figure 7: activation functions in the linearized Transformer.

§3.3 swaps the Linear Transformer's feature-map activation for ReLU,
LeakyReLU, GELU and GLU at the same layer shapes. Findings to
reproduce: ReLU / LeakyReLU / GELU cluster within a few percent of
each other with good MME/TPC overlap; GLU is the slowest and opens an
MME blank because SynapseAI recompiles for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.costmodel import EngineKind
from ..synapse import CompilerOptions, ProfileResult, ascii_timeline
from .attention_study import profile_layer
from .reference import FIG7_ACTIVATION_MS, ShapeCheck, threshold_check

ACTIVATIONS = ("relu", "leaky_relu", "gelu", "glu")


@dataclass
class ActivationStudyResult:
    """Fig 7's four per-activation profiles."""

    profiles: dict[str, ProfileResult]

    def total_ms(self, activation: str) -> float:
        """Makespan of one variant."""
        return self.profiles[activation].total_time_ms

    def checks(self) -> list[ShapeCheck]:
        """Fig 7's qualitative claims."""
        relu = self.total_ms("relu")
        leaky = self.total_ms("leaky_relu")
        gelu = self.total_ms("gelu")
        glu = self.total_ms("glu")
        fast_cluster = max(relu, leaky, gelu) / min(relu, leaky, gelu) - 1.0
        paper_glu_overhead = (
            FIG7_ACTIVATION_MS["glu"] / FIG7_ACTIVATION_MS["relu"] - 1.0
        )
        glu_overhead = glu / min(relu, leaky, gelu) - 1.0
        out = [
            threshold_check(
                "fig7: relu/leaky_relu/gelu cluster within 10%",
                fast_cluster, 0.10, upper=True,
            ),
            ShapeCheck(
                "fig7: GLU is the slowest activation",
                glu > max(relu, leaky, gelu),
                f"glu {glu:.1f} ms vs max(others) {max(relu, leaky, gelu):.1f} ms",
                "glu slowest (paper: 32.6 vs 29.7-30.2 ms)",
            ),
            ShapeCheck(
                "fig7: GLU overhead in the paper's band",
                0.5 * paper_glu_overhead
                <= glu_overhead
                <= 3.0 * paper_glu_overhead,
                f"{glu_overhead:.1%}",
                f"~{paper_glu_overhead:.1%} (x0.5..x3)",
            ),
            ShapeCheck(
                "fig7: GLU run includes a host recompilation",
                bool(self.profiles["glu"].timeline.engine_events(
                    EngineKind.HOST
                )),
                "present" if self.profiles["glu"].timeline.engine_events(
                    EngineKind.HOST
                ) else "absent",
                "recompilation event",
            ),
            ShapeCheck(
                "fig7: only GLU recompiles",
                all(
                    not self.profiles[a].timeline.engine_events(EngineKind.HOST)
                    for a in ("relu", "leaky_relu", "gelu")
                ),
                "others clean",
                "no recompilation for relu/leaky_relu/gelu",
            ),
        ]
        for act in ACTIVATIONS:
            # the three fast variants overlap well (paper: "The execution
            # of MME and TPC has a good overlap")
            if act != "glu":
                out.append(threshold_check(
                    f"fig7: {act} keeps MME idle below 30%",
                    self.profiles[act].mme_idle_fraction, 0.30, upper=True,
                ))
        return out

    def render(self, *, width: int = 100) -> str:
        """Per-activation summary + trace lanes."""
        blocks = []
        for act in ACTIVATIONS:
            res = self.profiles[act]
            blocks.append(
                f"== Figure 7 [{act}]: total {res.total_time_ms:.2f} ms "
                f"(paper {FIG7_ACTIVATION_MS[act]:.1f} ms) =="
            )
            blocks.append(ascii_timeline(res.timeline, width=width))
            blocks.append("")
        return "\n".join(blocks)

    def rows(self) -> list[tuple[str, float, float]]:
        """(activation, measured ms, paper ms) rows."""
        return [
            (act, self.total_ms(act), FIG7_ACTIVATION_MS[act])
            for act in ACTIVATIONS
        ]


def run_activation_study(
    options: CompilerOptions | None = None,
) -> ActivationStudyResult:
    """Profile the four Fig 7 feature-map activations."""
    profiles = {
        act: profile_layer("linear", feature_map=act, options=options)
        for act in ACTIVATIONS
    }
    return ActivationStudyResult(profiles)
