"""The full benchmarking study: every table, figure and extension.

:data:`EXPERIMENTS` is the one place that says what an experiment is:
one frozen :class:`Experiment` record each, which the CLI and the
study both read. ``run_full_study()`` runs the study's records in
table order and returns a :class:`StudyReport` whose ``render()`` is
the EXPERIMENTS.md payload: per-experiment measurements, the paper's
reference values, and the pass/miss state of every shape check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from ..synapse import CompilerOptions, recipe_cache_stats
from ..util.errors import ConfigError
from ..util.validation import check_backend
from .ablations import (
    run_chunked_attention_study,
    run_fusion_ablation,
    run_hbm_contention_ablation,
    run_pass_toggle_ablation,
    run_pipelined_attention_study,
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

#: the global flags a record may read beside the compiler options
GLOBAL_FLAGS = ("cards", "jobs")


@dataclass(frozen=True)
class Experiment:
    """One experiment: what it is, how it runs and what it honours.

    ``run`` receives ``options=`` and, as keywords, exactly the global
    flags in ``reads``, so a runner cannot see a flag its record does
    not declare. A record lists a backend other than ``gaudi`` only
    where its result depends on the device and its checks are not
    calibrated to Gaudi's MME/TPC split. The CLI refuses, before any
    compile, a flag or backend the record does not list.
    """

    name: str
    title: str
    run: Callable[..., Any]
    reads: tuple[str, ...] = ()
    backends: tuple[str, ...] = ("gaudi",)
    in_study: bool = True
    extension: bool = True

    def __post_init__(self) -> None:
        if not set(self.reads) <= set(GLOBAL_FLAGS):
            raise ConfigError(
                f"experiment {self.name!r} reads unknown global flag(s) "
                f"{self.reads}; choose from {GLOBAL_FLAGS}"
            )

    def __call__(
        self, options: CompilerOptions | None, cards: int | None = None,
        jobs: int = 1,
    ) -> Any:
        """Run the experiment; the result has ``render()`` and ``checks()``."""
        check_backend(
            self.name, (options or CompilerOptions()).backend, self.backends
        )
        given = {"cards": cards, "jobs": jobs}
        return self.run(
            options=options, **{flag: given[flag] for flag in self.reads}
        )


def _scaling(
    *, options: CompilerOptions | None, cards: int | None, jobs: int
) -> Any:
    counts = tuple(p for p in (1, 2, 4, 8) if cards is None or p <= cards)
    return run_scaling_study(card_counts=counts, jobs=jobs, options=options)


def _comm_ablation(
    *, options: CompilerOptions | None, cards: int | None, jobs: int
) -> Any:
    return run_comm_overlap_ablation(
        num_cards=cards or 8, jobs=jobs, options=options
    )


#: every experiment by command name, in the study's order
EXPERIMENTS: dict[str, Experiment] = {e.name: e for e in (
    Experiment("table1", "Table 1: operation-engine mapping",
               run_op_mapping, extension=False),
    Experiment("table2", "Table 2: MME vs TPC batched matmul",
               lambda options: run_mme_vs_tpc(), extension=False),
    Experiment("fig4-6", "Figures 4-6: attention-variant layer profiles",
               run_attention_study, extension=False),
    Experiment("fig7", "Figure 7: activation functions",
               run_activation_study, extension=False),
    Experiment("seq-sweep", "Long-sequence sweep (challenge #3)",
               run_seq_sweep, extension=False),
    Experiment("fig8", "Figure 8: GPT end-to-end training step",
               partial(run_e2e, "gpt"), extension=False),
    Experiment("fig9", "Figure 9: BERT end-to-end training step",
               partial(run_e2e, "bert"), extension=False),
    Experiment("ablation-reorder", "A1: issue-order ablation",
               run_reorder_ablation, backends=("gaudi", "wse")),
    Experiment("ablation-fusion", "A2: elementwise-fusion ablation",
               run_fusion_ablation, backends=("gaudi", "wse")),
    Experiment("ablation-tpc-cores", "A3: TPC core-count sweep",
               run_tpc_core_sweep),
    Experiment("scaling", "A4: HLS-1 multi-card scaling extension",
               _scaling, reads=("cards", "jobs")),
    Experiment("chunked", "A5: chunked-attention extension",
               run_chunked_attention_study, backends=("gaudi", "wse")),
    Experiment("pipelined", "A6: pipelined exact-attention extension",
               run_pipelined_attention_study),
    Experiment("gaudi2", "A7: Gaudi2 what-if extension",
               run_generation_comparison),
    Experiment("energy", "A8: energy extension", run_energy_study),
    Experiment("decode", "A9: KV-cached decode extension",
               run_decode_study),
    Experiment("ablation-passes", "A10: per-pass toggle ablation",
               run_pass_toggle_ablation, in_study=False),
    Experiment("ablation-hbm", "A11: HBM contention ablation",
               run_hbm_contention_ablation),
    Experiment("ablation-comm", "A12: communication-overlap ablation",
               _comm_ablation, reads=("cards", "jobs")),
    Experiment("ablation-overlap", "A13: overlap scheduler ablation",
               run_overlap_scheduler_ablation),
    Experiment("ablation-memory", "A14: memory planning ablation",
               run_memory_ablation),
    Experiment("ablation-serving", "A15: static vs continuous batching",
               run_serving_ablation, backends=("gaudi", "wse")),
    Experiment("ablation-parallel", "A16: multi-box parallel layouts",
               run_parallel_study),
    Experiment("ablation-kernels", "A17: attention kernel pack",
               run_kernel_pack_ablation),
    Experiment("ablation-backends",
               "A18: cross-backend comparison (Gaudi vs WSE)",
               run_backend_ablation),
)}


def study_entries(include_extensions: bool = True) -> list[Experiment]:
    """The records the full study runs, in table order."""
    return [
        e for e in EXPERIMENTS.values()
        if e.in_study and (include_extensions or not e.extension)
    ]

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
    """Run the experiment table's study records, in table order.

    ``jobs > 1`` parallelizes the multi-card simulations (A4/A12)
    across a process pool; every measurement is identical to the
    serial run. The closing recipe-cache line counts this run's
    lookups only.
    """
    before = recipe_cache_stats()
    report = StudyReport()
    for entry in study_entries(include_extensions):
        result = entry(options, None, jobs)
        report.add(entry.title, result.render(), result.checks())

    cache = {k: v - before[k] for k, v in recipe_cache_stats().items()}
    report.sections.append((
        "recipe cache",
        f"hits: {cache['hits']}  misses: {cache['misses']}  "
        f"disk hits: {cache['disk_hits']}",
    ))

    return report
