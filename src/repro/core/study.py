"""The full benchmarking study: every table, figure and extension.

``run_full_study()`` reproduces the paper end to end and returns a
:class:`StudyReport` whose ``render()`` is the EXPERIMENTS.md payload:
per-experiment measurements, the paper's reference values, and the
pass/miss state of every qualitative shape check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..synapse import CompilerOptions, recipe_cache_stats
from .ablations import (
    run_chunked_attention_study,
    run_hbm_contention_ablation,
    run_pipelined_attention_study,
    run_fusion_ablation,
    run_reorder_ablation,
    run_tpc_core_sweep,
)
from .activation_study import run_activation_study
from .attention_study import run_attention_study
from .auto_layout import run_parallel_study
from .backend_study import run_backend_ablation
from .decode_study import run_decode_study
from .e2e_llm import run_e2e
from .energy_study import run_energy_study
from .generations import run_generation_comparison
from .kernel_study import run_kernel_pack_ablation
from .memory_study import run_memory_ablation
from .mme_vs_tpc import run_mme_vs_tpc
from .opmapping import run_op_mapping
from .overlap_study import run_overlap_scheduler_ablation
from .reference import ShapeCheck
from .scaling_study import run_comm_overlap_ablation, run_scaling_study
from .seq_sweep import run_seq_sweep
from .serving import run_serving_ablation


@dataclass
class StudyReport:
    """Everything the study produced."""

    sections: list[tuple[str, str]] = field(default_factory=list)
    checks: list[ShapeCheck] = field(default_factory=list)

    def add(self, title: str, body: str, checks: list[ShapeCheck]) -> None:
        """Append one experiment's rendering + checks."""
        self.sections.append((title, body))
        self.checks.extend(checks)

    @property
    def num_passed(self) -> int:
        """Shape checks that hold."""
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        """Whether every shape check holds."""
        return self.num_passed == len(self.checks)

    def failed_checks(self) -> list[ShapeCheck]:
        """Checks that missed the paper's band."""
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        """Full human-readable report."""
        parts = [
            "Reproduction study report",
            f"shape checks: {self.num_passed}/{len(self.checks)} passed",
            "",
        ]
        for title, body in self.sections:
            parts.append(f"{'=' * 8} {title} {'=' * 8}")
            parts.append(body)
            parts.append("")
        parts.append("=" * 8 + " shape-check summary " + "=" * 8)
        parts.extend(str(c) for c in self.checks)
        return "\n".join(parts)


def run_full_study(
    options: CompilerOptions | None = None,
    *,
    include_extensions: bool = True,
    jobs: int = 1,
) -> StudyReport:
    """Run every experiment in DESIGN.md's index.

    ``jobs > 1`` parallelizes the multi-card simulations (A4/A12)
    across a process pool; every measurement is identical to the
    serial run. The closing recipe-cache line counts this run's
    lookups only.
    """
    before = recipe_cache_stats()
    report = StudyReport()

    t1 = run_op_mapping(options)
    report.add("Table 1: operation-engine mapping", t1.render(), t1.checks())

    t2 = run_mme_vs_tpc()
    report.add("Table 2: MME vs TPC batched matmul", t2.render(), t2.checks())

    attn = run_attention_study(options)
    report.add("Figures 4-6: attention variants", attn.render(), attn.checks())

    act = run_activation_study(options)
    report.add("Figure 7: activation functions", act.render(), act.checks())

    sweep = run_seq_sweep(options=options)
    report.add("Long-sequence sweep (challenge #3)", sweep.render(),
               sweep.checks())

    for model in ("gpt", "bert"):
        e2e = run_e2e(model, options=options)
        fig = "Figure 8: GPT end-to-end" if model == "gpt" else \
            "Figure 9: BERT end-to-end"
        report.add(fig, e2e.render(), e2e.checks())

    if include_extensions:
        a1 = run_reorder_ablation("performer", options=options)
        report.add("A1: issue-order ablation", a1.render(), a1.checks())

        a2 = run_fusion_ablation("softmax", options=options)
        report.add("A2: fusion ablation", a2.render(), a2.checks())

        a3 = run_tpc_core_sweep(options=options)
        report.add("A3: TPC core sweep", a3.render(), a3.checks())

        a4 = run_scaling_study("gpt", options=options, jobs=jobs)
        report.add("A4: HLS-1 scaling extension", a4.render(), a4.checks())

        a5 = run_chunked_attention_study(options=options)
        report.add("A5: chunked attention extension", a5.render(), a5.checks())

        a6 = run_pipelined_attention_study(options=options)
        report.add("A6: pipelined exact attention extension", a6.render(),
                   a6.checks())

        a7 = run_generation_comparison(options)
        report.add("A7: Gaudi2 what-if extension", a7.render(), a7.checks())

        a8 = run_energy_study(options)
        report.add("A8: energy extension", a8.render(), a8.checks())

        a9 = run_decode_study(options=options)
        report.add("A9: KV-cached decode extension", a9.render(),
                   a9.checks())

        a11 = run_hbm_contention_ablation(options=options)
        report.add("A11: HBM contention ablation", a11.render(),
                   a11.checks())

        a12 = run_comm_overlap_ablation("gpt", options=options, jobs=jobs)
        report.add("A12: comm-overlap ablation", a12.render(),
                   a12.checks())

        a13 = run_overlap_scheduler_ablation(options)
        report.add("A13: overlap scheduler ablation", a13.render(),
                   a13.checks())

        a14 = run_memory_ablation(options)
        report.add("A14: memory planning ablation", a14.render(),
                   a14.checks())

        a15 = run_serving_ablation(options)
        report.add("A15: static vs continuous batching", a15.render(),
                   a15.checks())

        a16 = run_parallel_study(options=options)
        report.add("A16: multi-box parallel layouts", a16.render(),
                   a16.checks())

        a17 = run_kernel_pack_ablation(options)
        report.add("A17: attention kernel pack", a17.render(),
                   a17.checks())

        a18 = run_backend_ablation(options)
        report.add("A18: cross-backend comparison", a18.render(),
                   a18.checks())

    cache = {k: v - before[k] for k, v in recipe_cache_stats().items()}
    report.sections.append((
        "recipe cache",
        f"hits: {cache['hits']}  misses: {cache['misses']}  "
        f"disk hits: {cache['disk_hits']}",
    ))

    return report
