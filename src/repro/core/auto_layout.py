"""Extension A16: auto-parallelism planning across multi-box fabrics.

The paper benchmarks one HLS-1; §2.1 advertises scaling "in both
expanding and multiplying setups" without saying how a workload should
be laid out once it spans boxes. This extension answers with a
planner: enumerate every feasible ``(tp, pp, dp, microbatches)``
placement of a training step over ``total_cards`` cards (``tp`` never
crosses a box — TP collectives are latency-critical and belong on the
all-to-all intra-box links), price each candidate through the real
compiler + two-tier event-driven runtime, and pick the highest
simulated throughput.

Pricing is exhaustive over the (small) grid, so the planner's pick is
by construction within any tolerance of the grid optimum; the value of
the exercise is the *curve* — how 8-card single-box efficiency decays
at 32/64 cards across Ethernet, and which layout family (pure DP,
TP-in-box + DP-across-box, pipeline over boxes) holds up best. Every
candidate reuses the shared recipe cache, and incremental
recompilation replays the structural passes so only the
parallelism-dependent stages re-run per layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hw.config import HLS1Config
from ..hw.device import HLS1Device
from ..synapse import CompilerOptions, GraphCompiler
from ..synapse.recipe import RecipeCache
from ..synapse.runtime import HLS1Runtime
from ..util.errors import CompileError, DeviceMemoryError
from ..util.tabulate import render_table
from ..util.units import us_to_ms
from .e2e_llm import record_training_step
from .reference import ShapeCheck, threshold_check


@dataclass(frozen=True)
class ParallelLayout:
    """One placement of a training step over the card pool."""

    tp: int = 1
    pp: int = 1
    dp: int = 1
    #: DDP gradient-bucket size (MB) the layout compiles with
    bucket_mb: float = 25.0
    #: microbatches per step; 1 unless ``pp > 1``
    microbatches: int = 1

    @property
    def total_cards(self) -> int:
        """Cards the layout occupies."""
        return self.tp * self.pp * self.dp

    def describe(self) -> str:
        """Compact ``tp4·pp2·dp8(m8)`` label."""
        label = f"tp{self.tp}·pp{self.pp}·dp{self.dp}"
        if self.pp > 1:
            label += f"(m{self.microbatches})"
        return label


@dataclass(frozen=True)
class LayoutPricing:
    """One priced candidate; ``step_time_us=None`` means infeasible."""

    layout: ParallelLayout
    step_time_us: float | None
    #: why an infeasible layout was rejected
    reason: str = ""

    @property
    def feasible(self) -> bool:
        """Whether the candidate compiled and executed."""
        return self.step_time_us is not None


def enumerate_layouts(
    total_cards: int,
    *,
    cards_per_box: int = 8,
    batch: int = 8,
    tp_grid: tuple[int, ...] = (1, 2, 4, 8),
    pp_grid: tuple[int, ...] = (1, 2, 4),
    microbatch_grid: tuple[int, ...] = (1, 2, 4, 8),
    bucket_mb: float = 25.0,
) -> list[ParallelLayout]:
    """Every grid point that tiles ``total_cards`` exactly.

    Constraints: ``tp * pp * dp == total_cards`` with ``dp >= 1``;
    ``tp`` fits inside one box *and* inside one pipeline stage's card
    slice; pipelines need ``microbatches >= pp`` dividing ``batch``
    (stages must fill, microbatch shapes must be uniform); ``pp == 1``
    pins ``microbatches = 1``.
    """
    layouts: list[ParallelLayout] = []
    for tp in tp_grid:
        for pp in pp_grid:
            if tp * pp > total_cards or total_cards % (tp * pp):
                continue
            dp = total_cards // (tp * pp)
            stage_cards = total_cards // pp
            if tp > min(cards_per_box, stage_cards):
                continue
            if pp == 1:
                layouts.append(
                    ParallelLayout(tp, pp, dp, bucket_mb, 1)
                )
                continue
            for m in microbatch_grid:
                if m < pp or batch % m:
                    continue
                layouts.append(
                    ParallelLayout(tp, pp, dp, bucket_mb, m)
                )
    return layouts


def _system_config(
    total_cards: int, cards_per_box: int, hls1: HLS1Config
) -> HLS1Config:
    """The (boxes, cards) split hosting ``total_cards``."""
    if total_cards >= cards_per_box:
        return replace(
            hls1,
            num_cards=cards_per_box,
            boxes=total_cards // cards_per_box,
        )
    return replace(hls1, num_cards=total_cards, boxes=1)


class LayoutPlanner:
    """Prices layouts for one model through compiler + runtime.

    Graph recordings (keyed by microbatch size) and compiled recipes
    (the shared :class:`~repro.synapse.recipe.RecipeCache`) persist
    across :meth:`price` calls, so a study sweeping several card
    counts re-records nothing and re-compiles only new
    ``(tp, pp, microbatches, bucket)`` combinations.
    """

    def __init__(
        self,
        model_name: str,
        *,
        batch: int = 8,
        seq_len: int = 256,
        hls1: HLS1Config | None = None,
        cards_per_box: int = 8,
        options: CompilerOptions | None = None,
    ):
        self.model_name = model_name
        self.batch = batch
        self.seq_len = seq_len
        self.hls1 = hls1 or HLS1Config()
        self.cards_per_box = cards_per_box
        #: the base each candidate's parallelism overrides apply to
        self.options = options or CompilerOptions()
        self._graphs: dict[int, object] = {}
        self._cache = RecipeCache()

    def _graph(self, microbatch: int):
        graph = self._graphs.get(microbatch)
        if graph is None:
            graph = record_training_step(
                self.model_name, batch=microbatch, seq_len=self.seq_len
            ).graph
            self._graphs[microbatch] = graph
        return graph

    def price(self, layout: ParallelLayout) -> LayoutPricing:
        """Compile + execute one candidate; infeasibility is a result."""
        if layout.pp > 1 and self.batch % layout.microbatches:
            return LayoutPricing(
                layout, None, "microbatches do not divide the batch"
            )
        microbatch = (
            self.batch // layout.microbatches if layout.pp > 1
            else self.batch
        )
        options = replace(
            self.options,
            inject_collectives=True,
            bucket_mb=layout.bucket_mb,
            tp=layout.tp,
            pp=layout.pp,
            microbatches=layout.microbatches,
        )
        compiler = GraphCompiler(options=options, cache=self._cache)
        try:
            schedule = compiler.compile(self._graph(microbatch))
        except DeviceMemoryError:
            return LayoutPricing(layout, None, "exceeds HBM capacity")
        except CompileError as exc:
            return LayoutPricing(layout, None, str(exc))
        system = HLS1Device(_system_config(
            layout.total_cards, self.cards_per_box, self.hls1
        ))
        result = HLS1Runtime(system).execute(
            schedule, **options.runtime_kwargs()
        )
        return LayoutPricing(layout, result.total_time_us)

    def samples_per_s(self, pricing: LayoutPricing) -> float:
        """Aggregate training throughput of a priced layout."""
        if not pricing.feasible or pricing.step_time_us <= 0:
            return 0.0
        return (
            pricing.layout.dp * self.batch
            / (pricing.step_time_us / 1e6)
        )


@dataclass
class AutoLayoutResult:
    """The planner's verdict for one (model, card count)."""

    model_name: str
    total_cards: int
    priced: list[LayoutPricing]
    best: LayoutPricing
    best_samples_per_s: float

    def within(self, tolerance: float) -> bool:
        """Whether the pick is within ``tolerance`` of the grid optimum."""
        feasible = [p.step_time_us for p in self.priced if p.feasible]
        if not feasible or not self.best.feasible:
            return False
        return self.best.step_time_us <= (1.0 + tolerance) * min(feasible)


def auto_layout(
    model_name: str,
    total_cards: int,
    *,
    planner: LayoutPlanner | None = None,
    batch: int = 8,
    seq_len: int = 256,
    cards_per_box: int = 8,
    hls1: HLS1Config | None = None,
    tp_grid: tuple[int, ...] = (1, 2, 4, 8),
    pp_grid: tuple[int, ...] = (1, 2, 4),
    microbatch_grid: tuple[int, ...] = (1, 2, 4, 8),
) -> AutoLayoutResult:
    """Exhaustively price the grid and return the fastest layout.

    Feasible candidates are ranked by simulated aggregate throughput
    — step time alone cannot compare layouts, because candidates at
    the same ``total_cards`` process ``dp * batch`` samples per step
    and ``dp`` differs between them.
    """
    planner = planner or LayoutPlanner(
        model_name, batch=batch, seq_len=seq_len, hls1=hls1,
        cards_per_box=cards_per_box,
    )
    candidates = enumerate_layouts(
        total_cards,
        cards_per_box=planner.cards_per_box,
        batch=planner.batch,
        tp_grid=tp_grid,
        pp_grid=pp_grid,
        microbatch_grid=microbatch_grid,
    )
    if not candidates:
        raise CompileError(
            f"no feasible parallel layout tiles {total_cards} cards "
            f"from grids tp={tp_grid} pp={pp_grid}"
        )
    priced = [planner.price(layout) for layout in candidates]
    feasible = [p for p in priced if p.feasible]
    if not feasible:
        raise CompileError(
            f"every candidate layout for {model_name} on "
            f"{total_cards} cards is infeasible: "
            + "; ".join(f"{p.layout.describe()}: {p.reason}" for p in priced)
        )
    best = max(feasible, key=planner.samples_per_s)
    return AutoLayoutResult(
        model_name=model_name,
        total_cards=total_cards,
        priced=priced,
        best=best,
        best_samples_per_s=planner.samples_per_s(best),
    )


# -- A16: the scaling study --------------------------------------------------


@dataclass(frozen=True)
class ParallelRow:
    """One priced layout at one card count."""

    model_name: str
    num_cards: int
    layout: str
    tp: int
    pp: int
    dp: int
    microbatches: int
    feasible: bool
    step_time_ms: float
    samples_per_s: float
    #: throughput relative to ``num_cards`` perfectly-scaled cards
    efficiency: float
    picked: bool


@dataclass
class ParallelStudyResult:
    """A16: layout grid x card counts, with the planner's picks."""

    batch: int
    seq_len: int
    cards_per_box: int
    rows: list[ParallelRow] = field(default_factory=list)
    #: (model, cards) -> the planner's layout label
    picks: dict = field(default_factory=dict)

    def _best(self, model: str, cards: int) -> ParallelRow:
        return next(
            r for r in self.rows
            if r.model_name == model and r.num_cards == cards and r.picked
        )

    def checks(self) -> list[ShapeCheck]:
        """A16 claims: planner optimal on-grid, sane scaling shape."""
        checks: list[ShapeCheck] = []
        models = sorted({r.model_name for r in self.rows})
        for model in models:
            counts = sorted({
                r.num_cards for r in self.rows if r.model_name == model
            })
            best = [self._best(model, c) for c in counts]
            thr = [r.samples_per_s for r in best]
            checks.append(ShapeCheck(
                f"parallel [{model}]: best-layout throughput grows "
                "with cards",
                thr == sorted(thr),
                "monotone" if thr == sorted(thr) else f"{thr}",
                "monotone",
            ))
            # the pick is within 5% of the exhaustive-search optimum
            for c in counts:
                rows = [
                    r for r in self.rows
                    if r.model_name == model and r.num_cards == c
                    and r.feasible
                ]
                top = max(r.samples_per_s for r in rows)
                picked = self._best(model, c)
                checks.append(threshold_check(
                    f"parallel [{model}]: planner within 5% of "
                    f"exhaustive optimum at {c} cards",
                    picked.samples_per_s / top if top > 0 else 0.0,
                    0.95,
                ))
            if len(counts) > 1:
                top = best[-1]
                checks.append(threshold_check(
                    f"parallel [{model}]: scaling efficiency at "
                    f"{top.num_cards} cards (multi-box)",
                    top.efficiency, 0.25,
                ))
        return checks

    def render(self) -> str:
        """One table per model: the full per-layout scaling curves."""
        parts = []
        models = sorted({r.model_name for r in self.rows})
        for model in models:
            rows = [r for r in self.rows if r.model_name == model]
            parts.append(render_table(
                ["Cards", "Layout", "Step (ms)", "Samples/s",
                 "Efficiency", "Planner pick"],
                [(r.num_cards, r.layout,
                  f"{r.step_time_ms:.3f}" if r.feasible else "OOM",
                  f"{r.samples_per_s:.1f}" if r.feasible else "-",
                  f"{r.efficiency:.1%}" if r.feasible else "-",
                  "<-- auto" if r.picked else "")
                 for r in rows],
                title=(
                    f"A16 parallel layouts, {model} "
                    f"(batch {self.batch}, seq {self.seq_len}, "
                    f"{self.cards_per_box}-card boxes)"
                ),
            ))
        return "\n\n".join(parts)


def run_parallel_study(
    models: tuple[str, ...] = ("gpt", "bert"),
    *,
    card_counts: tuple[int, ...] = (8, 32, 64),
    batch: int = 8,
    seq_len: int = 256,
    cards_per_box: int = 8,
    options: CompilerOptions | None = None,
    tp_grid: tuple[int, ...] = (1, 4),
    pp_grid: tuple[int, ...] = (1, 4),
    microbatch_grid: tuple[int, ...] = (1, 8),
) -> ParallelStudyResult:
    """Price the layout grid for each model at each card count.

    Efficiency is against the same model's single-card step at the
    same per-rank batch: ``samples_per_s / (cards * single_card)``.
    The default grid keeps the study fast while spanning the three
    layout families (pure DP; TP-in-box; pipeline-across-boxes).
    """
    result = ParallelStudyResult(
        batch=batch, seq_len=seq_len, cards_per_box=cards_per_box
    )
    for model in models:
        planner = LayoutPlanner(
            model, batch=batch, seq_len=seq_len,
            cards_per_box=cards_per_box, options=options,
        )
        base = planner.price(ParallelLayout())
        base_thr = planner.samples_per_s(base)
        for cards in card_counts:
            verdict = auto_layout(
                model, cards, planner=planner,
                tp_grid=tp_grid, pp_grid=pp_grid,
                microbatch_grid=microbatch_grid,
            )
            result.picks[(model, cards)] = verdict.best.layout.describe()
            for pricing in verdict.priced:
                thr = planner.samples_per_s(pricing)
                result.rows.append(ParallelRow(
                    model_name=model,
                    num_cards=cards,
                    layout=pricing.layout.describe(),
                    tp=pricing.layout.tp,
                    pp=pricing.layout.pp,
                    dp=pricing.layout.dp,
                    microbatches=pricing.layout.microbatches,
                    feasible=pricing.feasible,
                    step_time_ms=us_to_ms(pricing.step_time_us or 0.0),
                    samples_per_s=thr,
                    efficiency=(
                        thr / (cards * base_thr) if base_thr > 0 else 0.0
                    ),
                    picked=pricing is verdict.best,
                ))
    return result
