"""A17: the attention kernel pack — closing the Fig-4 bubble kernel-side.

PR-4's scheduler (A13) attacked the softmax bubble by reordering work
*around* the naive cone; the ``attention_lowering`` pass attacks it from
the kernel side, GFormer-style (arXiv 2412.19829): fuse the softmax and
offload its exponential to the MME (``fused``), band the score matrix
(``windowed``), or tile the whole cone into an online-softmax flash
kernel that never writes the O(seq²) score matrix to HBM (``flash``).

This ablation profiles the Fig-4 softmax layer at the paper's shapes
under every lowering, crossed with the two scheduling regimes:

* in-order (SynapseAI's discipline, the Fig. 4 baseline),
* the A13 machinery (lookahead scheduler + TPC op slicing).

and verifies the pack's claims:

* flash removes every O(seq²) value from the compiled graph, so its
  score-matrix HBM traffic is exactly zero and the PR-5 liveness
  planner's peak collapses;
* flash improves the kernel-side layer time >= 30% over naive at
  sequence 2048, and *stacked* with the A13 scheduler it still beats
  the scheduler-only number;
* the fused and flash lowerings are numerically exact against the
  naive cone on a concrete layer, and windowed matches its banded
  numpy oracle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .. import ht
from ..hw.costmodel import EngineKind
from ..synapse import (
    CompilerOptions,
    GraphCompiler,
    ProfileResult,
    execute_schedule,
    lint_graph,
)
from ..synapse.passes.attention import ATTENTION_LOWERINGS
from ..synapse.trace import _merge_intervals, _overlap_us
from ..util.tabulate import render_table
from ..util.units import fmt_bytes
from .reference import LAYER_STUDY_SHAPES, ShapeCheck, threshold_check

#: acceptance bar — flash layer time vs the naive in-order baseline at
#: the paper's shapes (ISSUE criterion: >= 30% improvement; measured
#: ~57%: 96.2 ms vs 224.9 ms)
FLASH_LAYER_TIME_RATIO_MAX = 0.70

#: the naive score-matrix HBM traffic must dwarf flash's *total*
#: attention traffic — the O(seq²) -> O(seq) claim. At seq 2048 /
#: head dim 64 the analytic ratio is ~seq/d = 32x; demand >= 8x.
SCORE_TRAFFIC_RATIO_MIN = 8.0

#: the two scheduling regimes each lowering is crossed with
SCHEDULES: tuple[tuple[str, dict], ...] = (
    ("in-order", dict(scheduler="inorder")),
    ("scheduler", dict(scheduler="lookahead", tpc_slice_ops=True)),
)


def score_matrix_hbm_bytes(result: ProfileResult) -> int:
    """HBM bytes the schedule moves for (seq, seq)-shaped values.

    Every scheduled read or write of a value whose trailing two dims
    are both the sequence length counts its full payload — the traffic
    the flash lowering claims to eliminate (its compiled graph simply
    has no such value).
    """
    graph = result.schedule.graph
    seq = LAYER_STUDY_SHAPES["seq_len"]
    score_vids = {
        vid for vid, value in graph.values.items()
        if tuple(value.shape[-2:]) == (seq, seq)
    }
    if not score_vids:
        return 0
    total = 0
    for op in result.schedule.ops:
        for vid in list(op.reads) + list(op.writes):
            if vid in score_vids:
                total += graph.value(vid).nbytes
    return total


def attention_hbm_bytes(result: ProfileResult) -> int:
    """Total HBM bytes of the ops lowered from the softmax cone."""
    return sum(
        item.bytes_read + item.bytes_written
        for op in result.schedule.ops if op.src == "softmax"
        for item in op.items
    )


def exposed_softmax_tpc_us(result: ProfileResult) -> float:
    """TPC busy time of softmax-lowered ops not hidden under MME
    compute — the kernel-side analogue of A13's exposure metric, keyed
    by ``src`` so it follows the cone through every lowering."""
    events = result.timeline.events
    tpc = _merge_intervals([
        (e.start_us, e.end_us) for e in events
        if e.engine is EngineKind.TPC and e.src == "softmax"
    ])
    mme = _merge_intervals([
        (e.start_us, e.end_us) for e in events
        if e.engine is EngineKind.MME
    ])
    return sum(b - a for a, b in tpc) - _overlap_us(tpc, mme)


@dataclass
class KernelStudyResult:
    """A17's measurements: lowering x schedule grid on the Fig-4 layer."""

    #: lowering -> schedule label -> profile
    profiles: dict[str, dict[str, ProfileResult]] = field(
        default_factory=dict
    )
    #: concrete-layer numerics: lowering -> matches its reference
    numerics: dict[str, bool] = field(default_factory=dict)
    #: lint findings on the rewritten concrete graphs (fused cone +
    #: windowed mask rules)
    lint_findings: int = 0

    def profile(self, lowering: str, schedule: str = "in-order"):
        """The grid cell for one lowering under one schedule regime."""
        return self.profiles[lowering][schedule]

    @property
    def flash_layer_ratio(self) -> float:
        """Flash kernel-side layer time over the naive in-order
        baseline (the >= 30% improvement claim)."""
        return (
            self.profile("flash").total_time_us
            / self.profile("naive").total_time_us
        )

    @property
    def score_traffic_ratio(self) -> float:
        """Naive score-matrix HBM bytes over flash's *total* attention
        traffic — the O(seq²) -> O(seq) reduction."""
        flash = attention_hbm_bytes(self.profile("flash"))
        if flash <= 0:
            return float("inf")
        return score_matrix_hbm_bytes(self.profile("naive")) / flash

    def checks(self) -> list[ShapeCheck]:
        """A17's acceptance criteria."""
        flash_sched = self.profile("flash", "scheduler")
        naive_sched = self.profile("naive", "scheduler")
        return [
            ShapeCheck(
                "A17: flash score-matrix HBM traffic is zero",
                score_matrix_hbm_bytes(self.profile("flash")) == 0,
                fmt_bytes(score_matrix_hbm_bytes(self.profile("flash"))),
                "0 B",
            ),
            threshold_check(
                "A17: naive score traffic / flash attention traffic",
                self.score_traffic_ratio, SCORE_TRAFFIC_RATIO_MIN,
            ),
            threshold_check(
                "A17: flash layer time vs naive (kernel-side, in-order)",
                self.flash_layer_ratio, FLASH_LAYER_TIME_RATIO_MAX,
                upper=True,
            ),
            ShapeCheck(
                "A17: flash+scheduler beats scheduler-only (A13 stacked)",
                flash_sched.total_time_us < naive_sched.total_time_us,
                f"{flash_sched.total_time_ms:.1f} ms vs "
                f"{naive_sched.total_time_ms:.1f} ms",
                "flash+sched < naive+sched",
            ),
            ShapeCheck(
                "A17: flash collapses the liveness peak (PR-5 planner)",
                self.profile("flash").peak_hbm_bytes
                < self.profile("naive").peak_hbm_bytes,
                f"{fmt_bytes(self.profile('flash').peak_hbm_bytes)} vs "
                f"{fmt_bytes(self.profile('naive').peak_hbm_bytes)}",
                "flash < naive",
            ),
            ShapeCheck(
                "A17: fused closes the exposed softmax TPC time",
                exposed_softmax_tpc_us(self.profile("fused"))
                < 0.5 * exposed_softmax_tpc_us(self.profile("naive")),
                f"{exposed_softmax_tpc_us(self.profile('fused')) / 1e3:.1f}"
                f" ms vs "
                f"{exposed_softmax_tpc_us(self.profile('naive')) / 1e3:.1f}"
                " ms",
                "fused < 0.5x naive",
            ),
            ShapeCheck(
                "A17: non-naive lowerings numerically match references",
                all(self.numerics.get(m, False)
                    for m in ("fused", "windowed", "flash")),
                ", ".join(f"{m}={self.numerics.get(m)}"
                          for m in ("fused", "windowed", "flash")),
                "all True",
            ),
            ShapeCheck(
                "A17: kernel-pack lint clean on rewritten graphs",
                self.lint_findings == 0,
                f"{self.lint_findings} finding(s)", "0 findings",
            ),
        ]

    def render(self) -> str:
        """The lowering x schedule grid plus the headline ratios."""
        rows = []
        for lowering, by_label in self.profiles.items():
            for label, prof in by_label.items():
                rows.append((
                    lowering, label,
                    f"{prof.total_time_ms:.2f}",
                    f"{exposed_softmax_tpc_us(prof) / 1e3:.2f}",
                    fmt_bytes(score_matrix_hbm_bytes(prof)),
                    fmt_bytes(prof.peak_hbm_bytes),
                ))
        table = render_table(
            ["lowering", "schedule", "total (ms)",
             "exposed softmax TPC (ms)", "score HBM traffic", "peak HBM"],
            rows,
            title="A17: attention kernel pack (Fig. 4 softmax layer)",
        )
        lines = [
            table,
            f"flash vs naive layer time (in-order): "
            f"{1.0 - self.flash_layer_ratio:.1%} faster",
            f"naive score traffic over flash attention traffic: "
            f"{self.score_traffic_ratio:.1f}x",
        ]
        return "\n".join(lines)


def _check_kernel_numerics() -> tuple[dict[str, bool], int]:
    """Execute a small concrete attention block under every lowering.

    ``fused`` and ``flash`` graph lowerings must reproduce the naive
    compile bit for bit (their graph-level compute is exact softmax);
    ``windowed`` changes semantics, so it is checked against its banded
    numpy oracle built from the same keep mask the op declares. Also
    lints every rewritten graph (fused-cone + windowed-mask rules).
    """
    from ..ht import functional as F
    from ..synapse.ops import attention_keep_mask

    rng = np.random.default_rng(1717)
    batch, seq, dim, window = 4, 64, 16, 16
    q_np = rng.normal(size=(batch, seq, dim)).astype(np.float32)
    k_np = rng.normal(size=(batch, seq, dim)).astype(np.float32)
    v_np = rng.normal(size=(batch, seq, dim)).astype(np.float32)
    scale = dim ** -0.5

    with ht.record("a17-numerics", mode="concrete") as rec:
        q = ht.tensor(q_np, name="q")
        k = ht.tensor(k_np, name="k")
        v = ht.tensor(v_np, name="v")
        scores = F.mul_scalar(F.matmul(q, k, transpose_b=True), scale)
        probs = F.softmax(scores, axis=-1)
        F.matmul(probs, v)

    feeds = {"q": q_np, "k": k_np, "v": v_np}
    outputs: dict[str, np.ndarray] = {}
    findings = 0
    for mode in ATTENTION_LOWERINGS:
        options = CompilerOptions(
            attention_lowering=mode, attention_window=window
        )
        schedule = GraphCompiler(options=options).compile(rec.graph)
        env = execute_schedule(schedule, feeds)
        outputs[mode] = env[schedule.graph.nodes[-1].output]
        if mode != "naive":
            findings += len([
                w for w in lint_graph(schedule.graph)
                if w.rule in ("fused-softmax-cone", "windowed-mask")
            ])

    s = (q_np @ np.swapaxes(k_np, -1, -2)) * scale
    keep = attention_keep_mask(seq, seq, {"window": window, "causal": False})
    s = np.where(keep, s, -1.0e9)
    e = np.exp(s - s.max(-1, keepdims=True))
    oracle = (e / e.sum(-1, keepdims=True)) @ v_np

    numerics = {
        "naive": True,
        "fused": bool(np.array_equal(outputs["fused"], outputs["naive"])),
        "flash": bool(np.array_equal(outputs["flash"], outputs["naive"])),
        "windowed": bool(np.allclose(
            outputs["windowed"], oracle, rtol=1e-5, atol=1e-6
        )),
    }
    return numerics, findings


def run_kernel_pack_ablation(
    options: CompilerOptions | None = None,
) -> KernelStudyResult:
    """Profile the Fig-4 softmax layer under every attention lowering,
    in-order and stacked with the A13 scheduler."""
    from .attention_study import profile_layer

    base = options or CompilerOptions()
    result = KernelStudyResult()
    for lowering in ATTENTION_LOWERINGS:
        for label, kwargs in SCHEDULES:
            result.profiles.setdefault(lowering, {})[label] = profile_layer(
                "softmax", options=dataclasses.replace(
                    base, attention_lowering=lowering, **kwargs
                ),
            )
    result.numerics, result.lint_findings = _check_kernel_numerics()
    return result
