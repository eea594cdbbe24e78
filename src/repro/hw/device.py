"""Device objects: a simulated Gaudi card and an HLS-1 system.

A device is a cost model plus a clock. A :class:`GaudiDevice` prices
work on one card and keeps that card's clock; an :class:`HLS1Device`
is N identical cards behind the shared fabric, so it holds one card
device (whose cost model prices every card and whose clock is the
population's) plus the population shape. The synapse runtime executes
compiled schedules *onto* a device and advances its clock, so one
device can run many graphs back to back; what ran is recorded only in
the returned trace (:class:`~repro.synapse.trace.Timeline`). HBM
capacity is enforced at compile time by the memory planner
(:mod:`repro.synapse.passes.memory`), not by the device.
"""

from __future__ import annotations

from .config import GaudiConfig, HLS1Config
from .costmodel import CostModel


class GaudiDevice:
    """One simulated Gaudi processor: its cost model and its clock."""

    def __init__(self, config: GaudiConfig | None = None):
        self.config = config or GaudiConfig()
        self.cost_model = CostModel(self.config)
        #: device clock: the latest completion time of any executed op
        self.now = 0.0

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
    data-parallel schedule, and collective ops synchronize the cards
    through the fabric. The cards are identical and start every
    execute together, so one :class:`GaudiDevice` (``card_device``)
    stands for all of them: its cost model prices every card and its
    clock is the population's. With ``boxes=1`` the fabric is the flat
    pool of ``num_cards`` ring links; multi-box configs add the
    inter-box Ethernet tier (``inter_fabric_bandwidth``) and the card
    population becomes ``boxes x cards_per_box`` — card index ``i`` is
    ``(box i // cards_per_box, lane i % cards_per_box)``.
    """

    def __init__(self, config: HLS1Config | None = None):
        self.config = config or HLS1Config()
        self.card_device = GaudiDevice(self.config.card)

    @property
    def num_cards(self) -> int:
        """Total cards in the cluster (every box)."""
        return self.config.total_cards

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
        """System clock: the latest completion time on any card."""
        return self.card_device.now

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        ic = self.config.interconnect
        base = (
            f"HLS-1: {self.num_cards}x [{self.card_device.describe()}], "
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
