"""A13: engine-aware overlap — TPC op slicing + lookahead scheduling.

The Fig. 4 softmax layer leaves the MME idle for ~50% of the step: the
QK^T scores are produced, then the matrix engine parks while the TPC
grinds through one monolithic softmax, then the scores@V matmul runs
(§3.3). Neither issue reordering alone nor a smarter priority function
can fix that — the softmax is a single serial dependency between two
matmuls. The ``tpc_slicing`` compiler pass splits the scale/softmax
chain into row slices so score@V slices start as soon as their slice
normalizes, and the ``lookahead`` scheduler orders the slice soup so
the op that unblocks the MME soonest runs first.

This ablation measures the gap closure (Fig. 4 -> Fig. 5-style
overlap) across four configurations per workload:

* in-order (SynapseAI's discipline, the Fig. 4 baseline),
* reorder — the greedy earliest-ready list scheduler (A11's
  "performer + reorder" row),
* lookahead — critical-path priorities + MME-starvation boost,
* lookahead + slicing — the full overlap machinery.

It also re-verifies, on a concrete layer, that the sliced graph is
numerically byte-identical to the unsliced reference and that the
slice-reassembly lint rule finds nothing to flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import ht
from ..hw.costmodel import EngineKind
from ..models import TransformerLayer, paper_layer_config
from ..synapse import (
    CompilerOptions,
    GraphCompiler,
    ProfileResult,
    execute_schedule,
    lint_graph,
)
from ..synapse.trace import _merge_intervals, _overlap_us
from ..util.tabulate import render_table
from .reference import ShapeCheck, threshold_check

#: acceptance bar — MME idle with lookahead + slicing vs the reorder
#: baseline on the Fig. 4 softmax layer (ISSUE criterion: >= 25%
#: reduction; the measured reduction is ~69%)
MME_IDLE_RATIO_MAX = 0.75

#: the Performer q'/k' serialization gap must be gone under lookahead
#: (<= 5% of the greedy baseline's exposure; measured exactly 0)
EXP_EXPOSURE_RATIO_MAX = 0.05

#: the four (label, CompilerOptions kwargs) configurations per workload
CONFIGS: tuple[tuple[str, dict], ...] = (
    ("in-order", dict(scheduler="inorder")),
    ("reorder", dict(scheduler="reorder")),
    ("lookahead", dict(scheduler="lookahead")),
    ("lookahead+slicing", dict(scheduler="lookahead", tpc_slice_ops=True)),
)


def exposed_tpc_us(result: ProfileResult, marker: str) -> float:
    """TPC busy time on ops matching ``marker`` not hidden under MME
    compute — the "MME blank while the TPC grinds" of Figs. 4/6."""
    events = result.timeline.events
    tpc = _merge_intervals([
        (e.start_us, e.end_us) for e in events
        if e.engine is EngineKind.TPC and marker in e.name
    ])
    mme = _merge_intervals([
        (e.start_us, e.end_us) for e in events
        if e.engine is EngineKind.MME
    ])
    return sum(b - a for a, b in tpc) - _overlap_us(tpc, mme)


@dataclass
class OverlapStudyResult:
    """A13's measurements: per-workload scheduler/slicing grid."""

    #: workload kind -> config label -> profile
    profiles: dict[str, dict[str, ProfileResult]] = field(
        default_factory=dict
    )
    #: sliced-vs-eager numerics agreement on the concrete check layer
    numerics_identical: bool = False
    #: slice-reassembly lint findings on the sliced check graph
    lint_findings: int = 0

    def mme_idle_us(self, kind: str, label: str) -> float:
        """MME idle up to the last compute (DMA drain excluded)."""
        return self.profiles[kind][label].idle_us(
            EngineKind.MME, until="last_compute"
        )

    @property
    def idle_reduction(self) -> float:
        """Fractional MME-idle reduction, lookahead+slicing vs the
        reorder baseline, on the Fig. 4 softmax layer."""
        base = self.mme_idle_us("softmax", "reorder")
        if base <= 0:
            return 0.0
        return 1.0 - self.mme_idle_us("softmax", "lookahead+slicing") / base

    def checks(self) -> list[ShapeCheck]:
        """A13's acceptance criteria."""
        softmax_ratio = (
            self.mme_idle_us("softmax", "lookahead+slicing")
            / max(self.mme_idle_us("softmax", "reorder"), 1e-9)
        )
        exp_base = exposed_tpc_us(
            self.profiles["performer"]["reorder"], "exp"
        )
        exp_ratio = (
            exposed_tpc_us(self.profiles["performer"]["lookahead"], "exp")
            / max(exp_base, 1e-9)
        )
        sliced = self.profiles["softmax"]["lookahead+slicing"]
        return [
            threshold_check(
                "A13: softmax MME idle, lookahead+slicing vs reorder",
                softmax_ratio, MME_IDLE_RATIO_MAX, upper=True,
            ),
            threshold_check(
                "A13: performer q'/k' exp exposure vs reorder",
                exp_ratio, EXP_EXPOSURE_RATIO_MAX, upper=True,
            ),
            threshold_check(
                "A13: slicing pass engaged on the softmax layer",
                float(sliced.overlap_stats.get("slices_created", 0)), 1.0,
            ),
            ShapeCheck(
                "A13: sliced graph numerics byte-identical to eager",
                self.numerics_identical, str(self.numerics_identical),
                "True",
            ),
            ShapeCheck(
                "A13: slice-reassembly lint clean",
                self.lint_findings == 0,
                f"{self.lint_findings} finding(s)", "0 findings",
            ),
        ]

    def render(self) -> str:
        """Per-workload scheduler/slicing comparison tables."""
        parts = []
        for kind, by_label in self.profiles.items():
            rows = []
            for label, prof in by_label.items():
                idle = self.mme_idle_us(kind, label)
                stats = prof.overlap_stats
                rows.append((
                    label,
                    f"{prof.total_time_ms:.2f}",
                    f"{idle / 1000.0:.2f}",
                    f"{prof.idle_fraction(EngineKind.MME, until='last_compute'):.1%}",
                    stats.get("slices_created", 0),
                ))
            parts.append(render_table(
                ["schedule", "total (ms)", "MME idle (ms)",
                 "MME idle frac", "slices"],
                rows,
                title=f"A13: overlap scheduling ({kind} attention)",
            ))
        parts.append(
            f"softmax MME-idle reduction (lookahead+slicing vs reorder): "
            f"{self.idle_reduction:.1%}"
        )
        return "\n".join(parts)


def _check_sliced_numerics() -> tuple[bool, int]:
    """Compile a small concrete attention block with slicing forced on
    (``tpc_slice_min_us=0``), and verify (a) the functional executor
    reproduces the eager frontend bit for bit, (b) the slice-reassembly
    lint rule is clean on the sliced graph."""
    rng = np.random.default_rng(1234)
    q_np = rng.normal(size=(4, 16, 8)).astype(np.float32)
    k_np = rng.normal(size=(4, 8, 16)).astype(np.float32)
    v_np = rng.normal(size=(4, 16, 8)).astype(np.float32)
    from ..ht import functional as F

    with ht.record("a13-numerics", mode="concrete") as rec:
        q = ht.tensor(q_np, name="q")
        k = ht.tensor(k_np, name="k")
        v = ht.tensor(v_np, name="v")
        scores = F.mul_scalar(F.matmul(q, k), 0.125)
        probs = F.softmax(scores, axis=-1)
        out = F.matmul(probs, v)
        eager = out.numpy()

    options = CompilerOptions(tpc_slice_ops=True, tpc_slice_min_us=0.0)
    schedule = GraphCompiler(options=options).compile(rec.graph)
    if not schedule.stats.get("overlap", {}).get("slices_created"):
        return False, 0  # the pass must actually engage for the check
    env = execute_schedule(
        schedule, {"q": q_np, "k": k_np, "v": v_np}
    )
    # the slicing rewriter renumbers values — compare the *sliced*
    # graph's terminal output against the eager reference
    out_vid = schedule.graph.nodes[-1].output
    identical = bool(np.array_equal(env[out_vid], eager))
    findings = [
        w for w in lint_graph(schedule.graph)
        if w.rule == "slice-reassembly"
    ]
    return identical, len(findings)


def run_overlap_scheduler_ablation(
    options: CompilerOptions | None = None,
) -> OverlapStudyResult:
    """Profile the Fig. 4 softmax and Fig. 6 Performer layers under
    every scheduler/slicing configuration.

    The grid — layer workloads crossed with :data:`CONFIGS` — is a
    ``profile``-executor :class:`~repro.core.sweep.SweepSpec`; each
    point's rich :class:`~repro.synapse.ProfileResult` lands in
    ``profiles`` keyed exactly as before.
    """
    from .sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        name="a13-overlap-scheduler",
        models=("layer:softmax", "layer:performer"),
        policies=tuple(
            (label, tuple(kwargs.items())) for label, kwargs in CONFIGS
        ),
        executor="profile",
    )
    sweep = run_sweep(spec, options=options)
    result = OverlapStudyResult()
    for point in sweep.results:
        kind = point.point.model.split(":", 1)[1]
        result.profiles.setdefault(kind, {})[point.point.policy] = (
            point.profile
        )
    result.numerics_identical, result.lint_findings = (
        _check_sliced_numerics()
    )
    return result
