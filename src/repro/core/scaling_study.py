"""Extensions A4 + A12: multi-card HLS-1 scaling of LLM training.

§2.1 advertises "exceptional scalability in both expanding and
multiplying setups" over the on-chip RoCE fabric; the paper itself
profiles a single card. Extension A4 weak-scales a data-parallel
training step across 1..8 Gaudis of an HLS-1 on the *event-driven*
multi-card runtime: one compiled recipe (card-count independent, so
the sweep keeps hitting the recipe cache) replayed per card with
bucketed gradient all-reduce draining through the shared fabric. The
closed-form :func:`~repro.hw.interconnect.data_parallel_step_time_us`
is retained as an analytic cross-check column — see its docstring for
why the two diverge.

Extension A12 holds the box at 8 cards and sweeps the communication
schedule itself: overlap off (one monolithic all-reduce behind the
last gradient) versus bucketed overlap at decreasing bucket sizes.
The headline is the exposed-communication time — NIC busy microseconds
not hidden under backward compute — collapsing as buckets shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.config import HLS1Config
from ..hw.interconnect import RingAllReduce, data_parallel_step_time_us
from ..synapse import CompilerOptions
from ..util.tabulate import render_table
from ..util.units import us_to_ms
from .e2e_llm import E2E_SHAPES
from .reference import ShapeCheck, threshold_check
from .sweep import SweepPoint, SweepSpec, run_sweep

#: the DDP policy both sweeps share: gradient all-reduce injection on
_DDP: tuple[tuple[str, object], ...] = (("inject_collectives", True),)


@dataclass(frozen=True)
class ScalingRow:
    """One card count in the weak-scaling sweep."""

    num_cards: int
    step_time_ms: float
    allreduce_ms: float
    efficiency: float
    aggregate_samples_per_s: float
    #: NIC time not hidden under compute (card 0), from the trace
    exposed_comm_ms: float = 0.0
    #: the closed-form analytic reference for the same step
    analytic_step_ms: float = 0.0


@dataclass
class ScalingStudyResult:
    """Weak scaling of one model across an HLS-1."""

    model_name: str
    per_card_batch: int
    gradient_bytes: int
    rows: list[ScalingRow] = field(default_factory=list)

    def checks(self) -> list[ShapeCheck]:
        """Scaling sanity claims for the extension."""
        top = max(self.rows, key=lambda r: r.num_cards)
        thr = [r.aggregate_samples_per_s for r in self.rows]
        multi = [r for r in self.rows if r.num_cards > 1]
        # The bucketed-overlap simulation must never be slower than
        # serializing compute then the whole all-reduce (the analytic
        # worst case); small slack for per-bucket latency terms.
        bounded = all(
            r.step_time_ms
            <= 1.05 * (self.rows[0].step_time_ms + r.allreduce_ms)
            for r in multi
        )
        return [
            threshold_check(
                f"scaling [{self.model_name}]: {top.num_cards}-card "
                "weak-scaling efficiency",
                top.efficiency, 0.80,
            ),
            ShapeCheck(
                f"scaling [{self.model_name}]: throughput grows with cards",
                thr == sorted(thr),
                "monotone" if thr == sorted(thr) else "non-monotone",
                "monotone",
            ),
            ShapeCheck(
                f"scaling [{self.model_name}]: simulated step bounded by "
                "compute + serial all-reduce",
                bounded,
                "bounded" if bounded else "exceeds serial analytic",
                "bounded",
            ),
        ]

    def render(self) -> str:
        """Scaling table (simulated next to the analytic reference)."""
        return render_table(
            ["Cards", "Step (ms)", "Analytic (ms)", "All-reduce (ms)",
             "Exposed comm (ms)", "Efficiency", "Samples/s"],
            [(r.num_cards, r.step_time_ms, r.analytic_step_ms,
              r.allreduce_ms, r.exposed_comm_ms,
              f"{r.efficiency:.1%}", r.aggregate_samples_per_s)
             for r in self.rows],
            title=f"HLS-1 weak scaling, {self.model_name} "
                  f"(per-card batch {self.per_card_batch}, event-driven)",
        )


def run_scaling_study(
    model_name: str = "gpt",
    *,
    options: CompilerOptions | None = None,
    card_counts: tuple[int, ...] = (1, 2, 4, 8),
    overlap_fraction: float = 0.5,
    jobs: int = 1,
) -> ScalingStudyResult:
    """Weak-scale a training step across the box, event-driven.

    The sweep is one :class:`~repro.core.sweep.SweepSpec` — the model
    crossed with the card counts under the DDP policy. The harness
    compiles the (card-count independent) recipe once and executes it
    on an :class:`~repro.synapse.runtime.HLS1Runtime` per card count;
    ``overlap_fraction`` only parameterizes the analytic reference
    column. ``jobs > 1`` fans the point executions out over a process
    pool fed from the shared warm disk-recipe cache; the simulation is
    deterministic, so the rows are identical either way.
    """
    hls1 = HLS1Config()
    counts = tuple(dict.fromkeys((1, *card_counts)))
    spec = SweepSpec(
        name="a4-weak-scaling",
        models=(model_name,),
        cards=counts,
        policies=(("ddp", _DDP),),
    )
    sweep = run_sweep(spec, options=options, jobs=jobs)
    timings = {r.point.cards: r.metrics for r in sweep.results}
    grad_bytes = int(timings[counts[0]]["gradient_bytes"])

    batch = E2E_SHAPES["batch"]
    result = ScalingStudyResult(model_name, batch, grad_bytes)
    ar = RingAllReduce(hls1.interconnect)

    base_us = timings[1]["total_time_us"]
    for p in card_counts:
        step_us = timings[p]["total_time_us"]
        exposed_us = timings[p]["exposed_comm_us"]
        result.rows.append(ScalingRow(
            num_cards=p,
            step_time_ms=us_to_ms(step_us),
            allreduce_ms=us_to_ms(ar.cost(p, grad_bytes).time_us),
            efficiency=base_us / step_us,
            aggregate_samples_per_s=p * batch / (step_us / 1e6),
            exposed_comm_ms=us_to_ms(exposed_us),
            analytic_step_ms=us_to_ms(data_parallel_step_time_us(
                base_us, grad_bytes, p, hls1.interconnect,
                overlap_fraction=overlap_fraction,
            )),
        ))
    return result


# -- A12: communication-overlap ablation ------------------------------------


@dataclass(frozen=True)
class OverlapRow:
    """One communication schedule at a fixed card count."""

    label: str
    comm_overlap: bool
    bucket_mb: float
    num_buckets: int
    step_time_ms: float
    efficiency: float
    exposed_comm_ms: float
    fabric_utilization: float


@dataclass
class CommOverlapAblationResult:
    """A12: overlap on/off x bucket size on a fixed HLS-1 population."""

    model_name: str
    num_cards: int
    gradient_bytes: int
    base_step_ms: float
    rows: list[OverlapRow] = field(default_factory=list)

    def checks(self) -> list[ShapeCheck]:
        """Overlap claims: monotone improvement, shrinking exposure."""
        effs = [r.efficiency for r in self.rows]
        monotone = all(b >= a - 1e-9 for a, b in zip(effs, effs[1:]))
        improved = self.rows[-1].efficiency > self.rows[0].efficiency
        exposed_drops = (
            self.rows[-1].exposed_comm_ms < self.rows[0].exposed_comm_ms
        )
        return [
            ShapeCheck(
                f"overlap [{self.model_name}]: efficiency improves "
                "monotonically along the sweep",
                monotone,
                "monotone" if monotone else f"non-monotone {effs}",
                "monotone",
            ),
            ShapeCheck(
                f"overlap [{self.model_name}]: bucketed overlap beats "
                "the monolithic all-reduce",
                improved,
                f"{self.rows[0].efficiency:.1%} -> "
                f"{self.rows[-1].efficiency:.1%}",
                "improved",
            ),
            ShapeCheck(
                f"overlap [{self.model_name}]: exposed communication "
                "shrinks with overlap",
                exposed_drops,
                f"{self.rows[0].exposed_comm_ms:.2f} -> "
                f"{self.rows[-1].exposed_comm_ms:.2f} ms",
                "shrinks",
            ),
        ]

    def render(self) -> str:
        """Ablation table, one row per communication schedule."""
        return render_table(
            ["Schedule", "Buckets", "Step (ms)", "Efficiency",
             "Exposed comm (ms)", "Fabric util"],
            [(r.label, r.num_buckets, r.step_time_ms,
              f"{r.efficiency:.1%}", r.exposed_comm_ms,
              f"{r.fabric_utilization:.1%}")
             for r in self.rows],
            title=f"A12 comm-overlap ablation, {self.model_name} on "
                  f"{self.num_cards} cards "
                  f"(single-card step {self.base_step_ms:.2f} ms)",
        )


def run_comm_overlap_ablation(
    model_name: str = "gpt",
    *,
    options: CompilerOptions | None = None,
    num_cards: int = 8,
    bucket_sizes_mb: tuple[float, ...] = (100.0, 25.0, 4.0),
    jobs: int = 1,
) -> CommOverlapAblationResult:
    """Sweep the DDP communication schedule on a fixed population.

    Rows run overlap-off first (one all-reduce behind the final
    gradient — the analytic model's world), then bucketed overlap at
    each of ``bucket_sizes_mb``, coarsest to finest. Each setting is a
    distinct compile (the bucket structure lives in the schedule),
    keyed separately in the shared recipe cache. The irregular shape —
    a single-card baseline point plus the full-population grid — is an
    explicit-points :class:`~repro.core.sweep.SweepSpec`; ``jobs > 1``
    fans the point executions over the harness's process pool.
    """
    settings: list[tuple[str, bool, float]] = [
        ("no overlap", False, float("inf"))
    ]
    for mb in bucket_sizes_mb:
        settings.append((f"overlap {mb:g} MB", True, mb))

    def overrides(overlap: bool, mb: float):
        if not overlap:
            return _DDP + (("comm_overlap", False),)
        return _DDP + (("comm_overlap", True), ("bucket_mb", mb))

    # point 0 is the single-card compute baseline (same recipe as the
    # no-overlap row); the rest are the sweep's rows on the population
    points = [SweepPoint(
        model=model_name, cards=1, policy="no overlap",
        overrides=overrides(False, float("inf")),
    )]
    points.extend(
        SweepPoint(
            model=model_name, cards=num_cards, policy=label,
            overrides=overrides(overlap, mb),
        )
        for label, overlap, mb in settings
    )
    spec = SweepSpec(name="a12-comm-overlap", points=tuple(points))
    sweep = run_sweep(spec, options=options, jobs=jobs)

    base_us = sweep.results[0].metrics["total_time_us"]
    result = CommOverlapAblationResult(
        model_name=model_name,
        num_cards=num_cards,
        gradient_bytes=int(sweep.results[0].metrics["gradient_bytes"]),
        base_step_ms=us_to_ms(base_us),
    )
    for (label, overlap, mb), point in zip(settings, sweep.results[1:]):
        step_us = point.metrics["total_time_us"]
        exposed_us = point.metrics["exposed_comm_us"]
        fabric_us = point.metrics["fabric_busy_us"]
        result.rows.append(OverlapRow(
            label=label,
            comm_overlap=overlap,
            bucket_mb=mb,
            num_buckets=point.metrics["all_reduce_ops"],
            step_time_ms=us_to_ms(step_us),
            efficiency=base_us / step_us,
            exposed_comm_ms=us_to_ms(exposed_us),
            fabric_utilization=fabric_us / step_us if step_us > 0 else 0.0,
        ))
    return result
