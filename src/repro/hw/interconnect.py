"""Multi-card interconnect model for the HLS-1 scaling extension.

Gaudi integrates RoCE v2 NICs on chip; inside an HLS-1 the eight cards
form an all-to-all fabric, which data-parallel training uses for
gradient all-reduce (§2.1: "GAUDI ... delivers exceptional scalability
in both expanding and multiplying setups"). The paper itself profiles a
single card; this module powers the scaling extension experiments
(DESIGN.md exps A4, A12).

Two views of the same algorithms live here:

* the closed-form :class:`RingAllReduce` cost — the analytic
  reference used for cross-checks and documentation;
* per-ring-step :class:`CollectivePlan` objects
  (:func:`collective_plan`) — the event-driven decomposition the
  multi-card runtime replays, step by step, through a fabric-level
  :class:`~repro.hw.bandwidth.BandwidthArbiter` so that concurrent
  collectives contend for wire time instead of each seeing an idle
  fabric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..util.errors import ConfigError
from ..util.units import s_to_us
from .config import InterconnectConfig


@dataclass(frozen=True)
class CollectiveCost:
    """Duration breakdown of one collective operation."""

    algorithm: str
    num_cards: int
    payload_bytes: int
    time_us: float
    steps: int


class RingAllReduce:
    """Bandwidth-optimal ring all-reduce cost model.

    time = 2 (p-1)/p * bytes / link_bw  +  2 (p-1) * latency

    which is the standard Rabenseifner/ring bound; with the HLS-1's
    all-to-all wiring each card has a dedicated link to its ring
    neighbour so the links don't contend.
    """

    def __init__(self, config: InterconnectConfig):
        self.config = config

    def cost(self, num_cards: int, payload_bytes: int) -> CollectiveCost:
        """All-reduce cost for ``payload_bytes`` across ``num_cards``."""
        if num_cards < 1:
            raise ConfigError(f"num_cards must be >= 1, got {num_cards}")
        if payload_bytes < 0:
            raise ConfigError(f"payload_bytes must be >= 0, got {payload_bytes}")
        if num_cards == 1:
            return CollectiveCost("ring-allreduce", 1, payload_bytes, 0.0, 0)
        p = num_cards
        steps = 2 * (p - 1)
        lat_term = steps * self.config.roce_latency_us
        if payload_bytes < p:
            # Sub-chunk payload: the ring cannot even split the buffer
            # into p chunks, so each step moves (at most) a byte and the
            # collective is purely latency-bound. Charging the bw term
            # here would bill near-zero-byte wire steps.
            return CollectiveCost("ring-allreduce", p, payload_bytes, lat_term, steps)
        bw_term = 2.0 * (p - 1) / p * payload_bytes / self.config.roce_bandwidth_bytes_per_s
        return CollectiveCost(
            "ring-allreduce", p, payload_bytes, s_to_us(bw_term) + lat_term, steps
        )


@dataclass(frozen=True)
class RingStep:
    """One synchronous step of a ring collective, as a fabric event.

    ``wire_bytes`` is the *aggregate* traffic the step puts on the
    fabric (all p ring links send concurrently, so one all-reduce step
    moving payload/p per link totals the full payload). A zero-wire
    step models a latency-bound hop: the step still takes
    ``latency_us`` but drains nothing through the fabric arbiter.
    ``tier`` routes the step through the fabric hierarchy: ``"intra"``
    steps drain the box-local RoCE pool, ``"inter"`` steps the
    inter-box Ethernet pool (flat single-box plans are all-intra).
    """

    wire_bytes: float
    latency_us: float
    tier: str = "intra"


@dataclass(frozen=True)
class CollectivePlan:
    """Event-driven decomposition of one collective.

    The runtime replays ``steps`` in order: wait ``latency_us``, then
    drain ``wire_bytes`` through the fabric arbiter at up to
    ``rate_cap`` bytes/s (``inter_rate_cap`` for ``tier="inter"``
    steps). A lone collective on an idle fabric reproduces
    ``analytic_time_us`` *exactly* — the analytic number is defined as
    the replayed step sum (:meth:`replay_time_us`), so the equality is
    closed-form, not a float tolerance. Concurrent collectives share
    the fabric pool and come out slower — that is the contention the
    closed forms cannot see.
    """

    algorithm: str
    num_cards: int
    payload_bytes: int
    steps: tuple[RingStep, ...]
    rate_cap: float
    analytic_time_us: float
    inter_rate_cap: float = 0.0

    @property
    def wire_bytes(self) -> float:
        """Total fabric traffic across all steps."""
        return sum(step.wire_bytes for step in self.steps)

    def replay_time_us(self) -> float:
        """The lone-fabric replay time: the exact per-step sum."""
        return _replay_sum(self.steps, self.rate_cap, self.inter_rate_cap)


def _replay_sum(
    steps: "tuple[RingStep, ...]", rate_cap: float, inter_rate_cap: float
) -> float:
    """Sum each step's latency + uncontended wire-drain time, in us.

    This is *the* closed form for a lone collective: the runtime waits
    ``latency_us`` per step and then drains ``wire_bytes`` at the
    step's tier cap, so summing the identical FP operations here makes
    plan-vs-replay equality exact instead of tolerance-based.
    """
    total = 0.0
    for step in steps:
        total += step.latency_us
        if step.wire_bytes:
            cap = inter_rate_cap if step.tier == "inter" else rate_cap
            total += s_to_us(step.wire_bytes / cap)
    return total


def fabric_bandwidth(config: InterconnectConfig, num_cards: int) -> float:
    """Aggregate fabric capacity of ``num_cards`` ring links, bytes/s.

    In the all-to-all HLS-1 wiring each card owns a dedicated link to
    its ring neighbour, so the fabric pool is ``num_cards`` links wide.
    """
    if num_cards < 1:
        raise ConfigError(f"num_cards must be >= 1, got {num_cards}")
    return num_cards * config.roce_bandwidth_bytes_per_s


def collective_plan(
    op_name: str,
    num_cards: int,
    payload_bytes: int,
    config: InterconnectConfig,
) -> CollectivePlan:
    """Build the per-ring-step fabric plan for one collective node.

    ``op_name`` is the graph-level op (``all_reduce``, ``all_gather``,
    ``reduce_scatter`` or ``broadcast``); ``payload_bytes`` is the
    per-card buffer size. With one card every plan is empty (zero
    steps, zero time) so a 1-card HLS-1 replay stays byte-identical to
    the single-card path. ``analytic_time_us`` is the exact replayed
    step sum (:func:`_replay_sum`); the ring/gather closed forms stay
    as cross-check references and agree to FP rounding.
    """
    if payload_bytes < 0:
        raise ConfigError(f"payload_bytes must be >= 0, got {payload_bytes}")
    p = num_cards
    log2_cards(p)  # validate the population
    link_bw = config.roce_bandwidth_bytes_per_s
    latency = config.roce_latency_us

    if op_name == "all_reduce":
        if p == 1:
            return CollectivePlan("ring-allreduce", 1, payload_bytes, (), link_bw, 0.0)
        # 2(p-1) steps; each moves payload/p per link on p concurrent
        # links = payload aggregate. Sub-chunk payloads degenerate to
        # latency-only hops (see RingAllReduce.cost).
        wire = float(payload_bytes) if payload_bytes >= p else 0.0
        steps = tuple(RingStep(wire, latency) for _ in range(2 * (p - 1)))
        cap = p * link_bw
        return CollectivePlan(
            "ring-allreduce", p, payload_bytes, steps, cap,
            _replay_sum(steps, cap, 0.0),
        )

    if op_name == "all_gather":
        if p == 1:
            return CollectivePlan("ring-allgather", 1, payload_bytes, (), link_bw, 0.0)
        wire = float(p * payload_bytes) if payload_bytes >= p else 0.0
        steps = tuple(RingStep(wire, latency) for _ in range(p - 1))
        cap = p * link_bw
        return CollectivePlan(
            "ring-allgather", p, payload_bytes, steps, cap,
            _replay_sum(steps, cap, 0.0),
        )

    if op_name == "reduce_scatter":
        # The first half of the ring all-reduce: p-1 reduce steps, each
        # moving payload/p per link on p concurrent links = payload
        # aggregate; every card ends with one reduced 1/p shard.
        if p == 1:
            return CollectivePlan(
                "ring-reducescatter", 1, payload_bytes, (), link_bw, 0.0
            )
        wire = float(payload_bytes) if payload_bytes >= p else 0.0
        steps = tuple(RingStep(wire, latency) for _ in range(p - 1))
        cap = p * link_bw
        return CollectivePlan(
            "ring-reducescatter", p, payload_bytes, steps, cap,
            _replay_sum(steps, cap, 0.0),
        )

    if op_name == "broadcast":
        # Chain broadcast: the root forwards the buffer around the
        # ring, one link active per step, p-1 hops.
        if p == 1:
            return CollectivePlan("chain-broadcast", 1, payload_bytes, (), link_bw, 0.0)
        wire = float(payload_bytes) if payload_bytes >= p else 0.0
        steps = tuple(RingStep(wire, latency) for _ in range(p - 1))
        return CollectivePlan(
            "chain-broadcast", p, payload_bytes, steps, link_bw,
            _replay_sum(steps, link_bw, 0.0),
        )

    raise ConfigError(f"unknown collective op {op_name!r}")


def p2p_plan(
    payload_bytes: int,
    config: InterconnectConfig,
    *,
    inter: bool = False,
) -> CollectivePlan:
    """A point-to-point send/recv pair as a one-step fabric plan.

    Pipeline-parallel stage boundaries move activations (forward) and
    activation gradients (backward) card-to-card. ``inter`` picks the
    tier: box-local RoCE or the inter-box Ethernet NIC (stages usually
    split across boxes, so the boundary rides the thin tier).
    """
    if payload_bytes < 0:
        raise ConfigError(f"payload_bytes must be >= 0, got {payload_bytes}")
    if inter:
        step = RingStep(
            float(payload_bytes), config.eth_latency_us, tier="inter"
        )
        cap = config.eth_bandwidth_bytes_per_s
        return CollectivePlan(
            "p2p-inter", 2, payload_bytes, (step,), config.roce_bandwidth_bytes_per_s,
            _replay_sum((step,), config.roce_bandwidth_bytes_per_s, cap),
            inter_rate_cap=cap,
        )
    step = RingStep(float(payload_bytes), config.roce_latency_us)
    cap = config.roce_bandwidth_bytes_per_s
    return CollectivePlan(
        "p2p-intra", 2, payload_bytes, (step,), cap,
        _replay_sum((step,), cap, 0.0),
    )


def hierarchical_collective_plan(
    op_name: str,
    boxes: int,
    cards_per_box: int,
    payload_bytes: int,
    config: InterconnectConfig,
) -> CollectivePlan:
    """A two-tier (multi-box) collective as one fabric plan.

    The hierarchy is the standard decomposition over ``boxes`` HLS-1s
    of ``cards_per_box`` cards each:

    * ``all_reduce`` — intra-box reduce-scatter, inter-box all-reduce
      of the per-card shards, intra-box all-gather;
    * ``reduce_scatter`` — intra-box reduce-scatter, then inter-box
      reduce-scatter of the shards;
    * ``all_gather`` — intra-box all-gather, then inter-box all-gather
      of the box aggregates;
    * ``broadcast`` — inter-box chain first, then concurrent intra-box
      chains.

    ``boxes=1`` returns the flat :func:`collective_plan` *verbatim* —
    not a reconstruction — so single-box traces stay byte-identical to
    the PR-3 fabric (FP non-associativity would otherwise leak in).
    Intra steps follow the flat sub-chunk convention (latency-only when
    ``payload < cards_per_box``); inter steps floor against the global
    population. Rate caps: ``boxes * cards_per_box`` concurrent RoCE
    links intra, ``boxes`` Ethernet NICs inter.
    """
    log2_cards(boxes)
    if boxes == 1:
        return collective_plan(op_name, cards_per_box, payload_bytes, config)
    if cards_per_box == 1:
        # Degenerate hierarchy: one card per box — the collective runs
        # entirely on the Ethernet tier as a flat ring over the boxes.
        flat = collective_plan(op_name, boxes, payload_bytes, config)
        steps = tuple(
            RingStep(s.wire_bytes, config.eth_latency_us, tier="inter")
            for s in flat.steps
        )
        inter_cap = (
            config.eth_bandwidth_bytes_per_s
            if flat.algorithm == "chain-broadcast"
            else boxes * config.eth_bandwidth_bytes_per_s
        )
        return CollectivePlan(
            flat.algorithm.replace("ring-", "eth-").replace("chain-", "eth-"),
            boxes, payload_bytes, steps, flat.rate_cap,
            _replay_sum(steps, flat.rate_cap, inter_cap),
            inter_rate_cap=inter_cap,
        )
    if payload_bytes < 0:
        raise ConfigError(f"payload_bytes must be >= 0, got {payload_bytes}")
    log2_cards(cards_per_box)
    b, c = boxes, cards_per_box
    p = b * c
    link_bw = config.roce_bandwidth_bytes_per_s
    eth_bw = config.eth_bandwidth_bytes_per_s
    intra_lat = config.roce_latency_us
    inter_lat = config.eth_latency_us
    intra_cap = p * link_bw
    inter_cap = b * eth_bw

    # Aggregate wire per step: every box rings concurrently on the
    # intra phases (b rings x payload aggregate each), and the c
    # shard-rings ring concurrently over the b NICs on the inter
    # phases (c rings x payload/c aggregate each = payload).
    intra_wire = float(b * payload_bytes) if payload_bytes >= c else 0.0
    inter_wire = float(payload_bytes) if payload_bytes >= p else 0.0
    gather_intra = float(b * c * payload_bytes) if payload_bytes >= c else 0.0
    gather_inter = (
        float(b * c * payload_bytes) if c * payload_bytes >= b else 0.0
    )

    if op_name == "all_reduce":
        steps = (
            tuple(RingStep(intra_wire, intra_lat) for _ in range(c - 1))
            + tuple(
                RingStep(inter_wire, inter_lat, tier="inter")
                for _ in range(2 * (b - 1))
            )
            + tuple(RingStep(intra_wire, intra_lat) for _ in range(c - 1))
        )
        return CollectivePlan(
            "hier-allreduce", p, payload_bytes, steps, intra_cap,
            _replay_sum(steps, intra_cap, inter_cap),
            inter_rate_cap=inter_cap,
        )

    if op_name == "reduce_scatter":
        steps = (
            tuple(RingStep(intra_wire, intra_lat) for _ in range(c - 1))
            + tuple(
                RingStep(inter_wire, inter_lat, tier="inter")
                for _ in range(b - 1)
            )
        )
        return CollectivePlan(
            "hier-reducescatter", p, payload_bytes, steps, intra_cap,
            _replay_sum(steps, intra_cap, inter_cap),
            inter_rate_cap=inter_cap,
        )

    if op_name == "all_gather":
        steps = (
            tuple(RingStep(gather_intra, intra_lat) for _ in range(c - 1))
            + tuple(
                RingStep(gather_inter, inter_lat, tier="inter")
                for _ in range(b - 1)
            )
        )
        return CollectivePlan(
            "hier-allgather", p, payload_bytes, steps, intra_cap,
            _replay_sum(steps, intra_cap, inter_cap),
            inter_rate_cap=inter_cap,
        )

    if op_name == "broadcast":
        inter_bc = float(payload_bytes) if payload_bytes >= b else 0.0
        intra_bc = float(b * payload_bytes) if payload_bytes >= c else 0.0
        steps = (
            tuple(
                RingStep(inter_bc, inter_lat, tier="inter")
                for _ in range(b - 1)
            )
            + tuple(RingStep(intra_bc, intra_lat) for _ in range(c - 1))
        )
        return CollectivePlan(
            "hier-broadcast", p, payload_bytes, steps, b * link_bw,
            _replay_sum(steps, b * link_bw, eth_bw),
            inter_rate_cap=eth_bw,
        )

    raise ConfigError(f"unknown collective op {op_name!r}")


def scale_plan(plan: CollectivePlan, groups: int) -> CollectivePlan:
    """Widen a plan to ``groups`` concurrent identical group-collectives.

    Tensor parallelism runs one collective per TP group and the groups
    fire simultaneously (every data-parallel replica reduces its own
    shard). Rather than admit ``groups`` drainers the runtime admits
    one with ``groups`` x the wire and ``groups`` x the rate caps — the
    same fluid outcome with one event. ``groups <= 1`` returns ``plan``
    unchanged (object-identical, preserving byte-identity paths).
    """
    if groups <= 1:
        return plan
    steps = tuple(
        RingStep(s.wire_bytes * groups, s.latency_us, s.tier)
        for s in plan.steps
    )
    rate_cap = plan.rate_cap * groups
    inter_cap = plan.inter_rate_cap * groups
    return CollectivePlan(
        plan.algorithm, plan.num_cards, plan.payload_bytes, steps,
        rate_cap, _replay_sum(steps, rate_cap, inter_cap),
        inter_rate_cap=inter_cap,
    )


def data_parallel_step_time_us(
    compute_time_us: float,
    gradient_bytes: int,
    num_cards: int,
    config: InterconnectConfig,
    *,
    overlap_fraction: float = 0.0,
) -> float:
    """One data-parallel training step: per-card compute + allreduce.

    **Analytic reference only.** The event-driven multi-card runtime
    (``synapse.runtime.HLS1Runtime``) is what A4/A12 report; this
    closed form is kept as the cross-check both studies print next to
    the simulated number. ``overlap_fraction`` is how much of the
    all-reduce hides under backward compute; 0 models the naive
    sequential step.

    The two views agree when overlap is off (one bucket, issued after
    the last backward op) up to per-bucket launch overhead. Once
    per-bucket readiness is modeled they diverge, because the analytic
    form assumes a single monolithic all-reduce over ``gradient_bytes``
    at a hand-tuned ``overlap_fraction``, while the simulated runtime
    (a) starts each bucket the moment its producing backward ops
    retire, so the hidden fraction is an *outcome*, not an input;
    (b) pays 2(p-1) link latencies per bucket, which the monolithic
    form amortizes once; and (c) shares fabric bandwidth between
    buckets that are in flight simultaneously.
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ConfigError(
            f"overlap_fraction must be in [0, 1], got {overlap_fraction}"
        )
    comm = RingAllReduce(config).cost(num_cards, gradient_bytes).time_us
    exposed = comm * (1.0 - overlap_fraction)
    hidden = comm * overlap_fraction
    # Hidden communication can only hide under actual compute time.
    return compute_time_us + exposed + max(0.0, hidden - compute_time_us)


def scaling_efficiency(step_time_1: float, step_time_p: float, p: int) -> float:
    """Weak-scaling efficiency of p cards vs 1 card at fixed per-card batch."""
    if p < 1 or step_time_1 <= 0 or step_time_p <= 0:
        raise ConfigError("invalid scaling-efficiency inputs")
    return step_time_1 / step_time_p


def log2_cards(num_cards: int) -> int:
    """Validate a power-of-two card count and return its log2."""
    if num_cards < 1 or (num_cards & (num_cards - 1)) != 0:
        raise ConfigError(f"card count must be a power of two, got {num_cards}")
    return int(math.log2(num_cards))
