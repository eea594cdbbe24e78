"""Extension A8: energy per attention variant (nominal constants).

Attaches the :mod:`repro.hw.energy` model to the §3.3 layer study and
asks the efficiency question the paper's introduction raises: how many
joules does each attention variant burn for the same work? Linearized
attention wins twice — less time (so less static energy) *and* fewer
TPC pJ/FLOP — and the O(N^2) attention matrix makes softmax attention
HBM-dominated on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import ht
from ..hw.energy import EnergyBreakdown, EnergyConfig, schedule_energy
from ..models import TransformerLayer, paper_layer_config
from ..synapse import CompilerOptions, SynapseProfiler
from ..util.tabulate import render_table
from ..util.validation import check_backend
from .reference import LAYER_STUDY_SHAPES, ShapeCheck, threshold_check

VARIANTS = ("softmax", "linear", "performer", "pipelined")


@dataclass
class EnergyStudyResult:
    """Per-variant energy of the Fig 4-6 layer."""

    variants: list[str]
    breakdowns: dict[str, EnergyBreakdown] = field(default_factory=dict)
    times_ms: dict[str, float] = field(default_factory=dict)
    tokens: int = LAYER_STUDY_SHAPES["batch"] * LAYER_STUDY_SHAPES["seq_len"]

    def joules(self, variant: str) -> float:
        """Total joules of one variant's layer pass."""
        return self.breakdowns[variant].total_joules

    def joules_per_token(self, variant: str) -> float:
        """Energy per token processed."""
        return self.joules(variant) / self.tokens

    def checks(self) -> list[ShapeCheck]:
        """Efficiency claims of the extension."""
        ratio = self.joules("softmax") / self.joules("linear")
        return [
            threshold_check(
                "ext-energy: linear attention saves energy vs softmax",
                ratio, 1.5,
            ),
            ShapeCheck(
                "ext-energy: pipelined saves static energy vs softmax",
                self.joules("pipelined") < self.joules("softmax"),
                f"{self.joules('pipelined'):.2f} J vs "
                f"{self.joules('softmax'):.2f} J",
                "pipelined < softmax (same math, less makespan)",
            ),
            threshold_check(
                "ext-energy: softmax's O(N^2) matrix costs HBM energy "
                "(softmax/linear HBM ratio)",
                self.breakdowns["softmax"].hbm_joules
                / self.breakdowns["linear"].hbm_joules,
                4.0,
            ),
            ShapeCheck(
                "ext-energy: idle (static) power dominates the softmax "
                "layer — the idling MME still burns watts",
                self.breakdowns["softmax"].static_joules
                > 0.5 * self.joules("softmax"),
                f"static {self.breakdowns['softmax'].static_joules:.1f} J "
                f"of {self.joules('softmax'):.1f} J",
                "> 50% of total",
            ),
        ]

    def render(self) -> str:
        """Per-variant energy table."""
        rows = []
        for v in self.variants:
            b = self.breakdowns[v]
            rows.append((
                v,
                self.times_ms[v],
                b.total_joules,
                1e3 * self.joules_per_token(v),
                b.mme_joules, b.tpc_joules, b.hbm_joules,
                b.static_joules,
            ))
        return render_table(
            ["variant", "time (ms)", "J total", "mJ/token", "J mme",
             "J tpc", "J hbm", "J static"],
            rows,
            title="A8: energy per attention variant (nominal constants)",
        )


def run_energy_study(
    options: CompilerOptions | None = None,
    energy: EnergyConfig | None = None,
) -> EnergyStudyResult:
    """Profile every variant and attach the (MME/TPC) energy model."""
    options = options or CompilerOptions()
    check_backend("the energy study", options.backend, ("gaudi",))
    shapes = LAYER_STUDY_SHAPES
    result = EnergyStudyResult(list(VARIANTS))
    for variant in VARIANTS:
        layer_cfg = paper_layer_config(variant, chunk_size=256)
        layer = TransformerLayer(layer_cfg, materialize=False)
        with ht.record(f"energy-{variant}", mode="symbolic") as rec:
            layer(ht.input_tensor(
                (shapes["batch"], shapes["seq_len"], layer_cfg.d_model)
            ))
        profile = SynapseProfiler(options=options).profile(rec.graph)
        result.times_ms[variant] = profile.total_time_ms
        result.breakdowns[variant] = schedule_energy(
            profile.schedule, profile.total_time_us, energy,
        )
    return result
