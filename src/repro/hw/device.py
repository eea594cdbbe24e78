"""Device objects: a simulated Gaudi card and an HLS-1 system.

A :class:`GaudiDevice` bundles the per-engine timelines and the cost
model; an :class:`HLS1Device` is N of them behind the shared fabric.
The synapse runtime executes compiled schedules *onto* a device; the
device owns all mutable simulation state so one device can run many
graphs back to back (its clock keeps advancing) or be reset between
experiments. HBM capacity is enforced at compile time by the memory
planner (:mod:`repro.synapse.passes.memory`), not by the device.
"""

from __future__ import annotations

from .config import GaudiConfig, HLS1Config
from .costmodel import CostModel, EngineKind
from .des import EngineTimeline


class GaudiDevice:
    """One simulated Gaudi processor."""

    def __init__(self, config: GaudiConfig | None = None):
        self.config = config or GaudiConfig()
        self.cost_model = CostModel(self.config)
        self.timelines: dict[EngineKind, EngineTimeline] = {
            EngineKind.MME: EngineTimeline("MME"),
            EngineKind.TPC: EngineTimeline("TPC"),
            EngineKind.DMA: EngineTimeline("DMA"),
            EngineKind.HOST: EngineTimeline("HOST"),
            EngineKind.NIC: EngineTimeline("NIC"),
        }

    @property
    def now(self) -> float:
        """Device clock: the latest completion time across engines."""
        return max(tl.free_at for tl in self.timelines.values())

    def timeline(self, engine: EngineKind) -> EngineTimeline:
        """The busy-interval ledger of ``engine``."""
        return self.timelines[engine]

    def reset(self) -> None:
        """Clear all engine timelines."""
        for tl in self.timelines.values():
            tl.reset()

    def utilization(self, engine: EngineKind, horizon: float | None = None) -> float:
        """Fraction of time ``engine`` was busy up to ``horizon``."""
        horizon = self.now if horizon is None else horizon
        return self.timelines[engine].utilization(horizon)

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        cfg = self.config
        return (
            f"{cfg.name}: MME {cfg.mme.peak_tflops:.1f} TFLOPS peak, "
            f"TPC {cfg.tpc.num_cores}x{cfg.tpc.vector_bits}b "
            f"({cfg.tpc.peak_tflops(cfg.default_dtype):.2f} TFLOPS "
            f"{cfg.default_dtype}), HBM "
            f"{cfg.hbm.capacity_bytes / (1 << 30):.0f} GiB @ "
            f"{cfg.hbm.bandwidth_bytes_per_s / 1e9:.0f} GB/s"
        )


class HLS1Device:
    """N Gaudi cards plus the shared fabric tiers, as one device.

    The paper runs on a single card of an HLS-1 (§3.1); this is what
    the multi-card runtime executes onto: every card replays the same
    data-parallel schedule on its own clock, and collective ops
    synchronize the clocks through the fabric. With ``boxes=1`` the
    fabric is the flat pool of ``num_cards`` ring links; multi-box
    configs add the inter-box Ethernet tier
    (``inter_fabric_bandwidth``) and the card population becomes
    ``boxes x cards_per_box`` — card index ``i`` is
    ``(box i // cards_per_box, lane i % cards_per_box)``.
    """

    def __init__(self, config: HLS1Config | None = None):
        self.config = config or HLS1Config()
        self.cards = [
            GaudiDevice(self.config.card)
            for _ in range(self.config.total_cards)
        ]

    @property
    def num_cards(self) -> int:
        """Total cards in the cluster (every box)."""
        return len(self.cards)

    @property
    def boxes(self) -> int:
        """HLS-1 boxes in the cluster."""
        return self.config.boxes

    @property
    def cards_per_box(self) -> int:
        """Cards inside each box (the all-to-all RoCE domain)."""
        return self.config.num_cards

    @property
    def interconnect(self):
        """The fabric configuration."""
        return self.config.interconnect

    @property
    def fabric_bandwidth(self) -> float:
        """Aggregate intra-box fabric capacity, bytes/s (all ring links)."""
        from .interconnect import fabric_bandwidth

        return fabric_bandwidth(self.config.interconnect, self.num_cards)

    @property
    def inter_fabric_bandwidth(self) -> float:
        """Aggregate inter-box Ethernet capacity, bytes/s (one NIC/box)."""
        return self.boxes * self.config.interconnect.eth_bandwidth_bytes_per_s

    @property
    def now(self) -> float:
        """System clock: the latest completion time across all cards."""
        return max(card.now for card in self.cards)

    def __len__(self) -> int:
        return len(self.cards)

    def card(self, index: int) -> GaudiDevice:
        """The ``index``-th Gaudi in the box."""
        return self.cards[index]

    def reset(self) -> None:
        """Reset every card."""
        for card in self.cards:
            card.reset()

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        ic = self.config.interconnect
        base = (
            f"HLS-1: {self.num_cards}x [{self.cards[0].describe()}], "
            f"RoCE {ic.roce_bandwidth_bytes_per_s / 1e9:.1f} GB/s/link @ "
            f"{ic.roce_latency_us:.1f} us"
        )
        if self.boxes > 1:
            base += (
                f", {self.boxes} boxes over Ethernet "
                f"{ic.eth_bandwidth_bytes_per_s / 1e9:.1f} GB/s/NIC @ "
                f"{ic.eth_latency_us:.1f} us"
            )
        return base


def default_device() -> GaudiDevice:
    """A fresh device with the paper-calibrated default configuration."""
    return GaudiDevice(GaudiConfig())
