"""Hardware configuration for the simulated Gaudi processor and HLS-1 box.

The default values are *calibrated to the paper's measurements*, not to
Habana datasheets: the paper's Table 2 saturates batched matmul at
~14.6 TFLOPS on the MME and ~2.2 TFLOPS on the TPC cluster, so the
default clocks/widths are chosen to reproduce those achieved rates.
Where the paper gives architectural facts (8 TPCs, 2048-bit SIMD, 1 KB
scalar + 80 KB vector local memory, 32 GB HBM, RoCE v2 NICs, PCIe Gen4)
the defaults follow the paper (§2.1–§2.2, §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..util.errors import ConfigError
from ..util.units import GIB, MIB, KIB
from ..util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)
from .dtypes import DType, TPC_VECTOR_BITS, simd_lanes

#: VPU cycles per element for the exponential special function. This is
#: the single source of truth shared by the aggregate cost model
#: (``TPCClusterConfig.special_cycles``) and the mini-ISA softmax
#: kernels (``repro.tpc.kernels.softmax`` derives its per-bundle stall
#: from it), so the Fig-4 recalibration can never drift between layers.
EXP_SPECIAL_CYCLES = 15


@dataclass(frozen=True)
class MMEConfig:
    """Matrix Multiplication Engine model parameters.

    The MME is modeled as a ``rows x cols`` MAC array clocked at
    ``freq_ghz``; a matmul achieves

    ``peak * spatial * fill``

    where ``spatial`` is the fraction of the array covered by the output
    tile and ``fill = K / (K + fill_cycles)`` models pipeline fill along
    the contraction dim. Small *eagerly dispatched* ops additionally pay
    :data:`repro.hw.costmodel.EAGER_DISPATCH_OVERHEAD_US` per call —
    that host-side cost, not the array, is what limits Table 2's
    128-sized matmul to ~2.3 of ~14.7 peak TFLOPS.
    """

    rows: int = 128
    cols: int = 128
    freq_ghz: float = 0.45
    fill_cycles: int = 16
    launch_overhead_us: float = 2.0

    def __post_init__(self) -> None:
        check_positive_int("MMEConfig.rows", self.rows)
        check_positive_int("MMEConfig.cols", self.cols)
        check_positive("MMEConfig.freq_ghz", self.freq_ghz)
        check_non_negative("MMEConfig.fill_cycles", self.fill_cycles)
        check_non_negative("MMEConfig.launch_overhead_us", self.launch_overhead_us)

    @property
    def peak_tflops(self) -> float:
        """Peak MAC throughput in TFLOP/s (2 FLOPs per MAC)."""
        return self.rows * self.cols * 2 * self.freq_ghz * 1e9 / 1e12


@dataclass(frozen=True)
class TPCClusterConfig:
    """Tensor Processing Core cluster model parameters.

    Eight VLIW/SIMD cores with 2048-bit vector units (§2.2). Throughput
    classes:

    * elementwise ops run near the SIMD peak (``elementwise_eff``) but
      are usually HBM-bandwidth bound;
    * reductions serialize across lanes and achieve ``reduction_eff`` of
      peak — the paper's explanation for why softmax hurts (§3.3);
    * special functions (exp, log, sqrt, erf, tanh, sigmoid) cost a fixed
      number of VPU cycles per element (``special_cycles``).
    """

    num_cores: int = 8
    freq_ghz: float = 1.1
    vector_bits: int = TPC_VECTOR_BITS
    elementwise_eff: float = 0.90
    reduction_eff: float = 0.10
    # exp is calibrated against Fig 4's ">80% of TPC time is softmax"
    # under the shared-HBM timing model (the compute floor of the
    # fused sub+exp chain sets softmax's TPC busy time).
    special_cycles: dict[str, int] = field(
        default_factory=lambda: {
            "exp": EXP_SPECIAL_CYCLES,
            "log": 14,
            "sqrt": 8,
            "rsqrt": 8,
            "erf": 16,
            "tanh": 14,
            "sigmoid": 14,
            "pow": 18,
            "div": 6,
        }
    )
    default_special_cycles: int = 14
    launch_overhead_us: float = 1.5
    # Local memories, per core (§2.2).
    scalar_local_bytes: int = 1 * KIB
    vector_local_bytes: int = 80 * KIB
    # Cycles to load/store one full vector from/to global memory (§2.2:
    # "every four cycles can accommodate the loading or writing of a
    # 2048-bit vector").
    global_access_cycles: int = 4

    def __post_init__(self) -> None:
        check_positive_int("TPCClusterConfig.num_cores", self.num_cores)
        check_positive("TPCClusterConfig.freq_ghz", self.freq_ghz)
        check_positive_int("TPCClusterConfig.vector_bits", self.vector_bits)
        check_fraction("TPCClusterConfig.elementwise_eff", self.elementwise_eff)
        check_fraction("TPCClusterConfig.reduction_eff", self.reduction_eff)
        check_non_negative("TPCClusterConfig.launch_overhead_us", self.launch_overhead_us)

    def lanes(self, dtype: DType) -> int:
        """SIMD lanes per core for ``dtype``."""
        return simd_lanes(dtype, self.vector_bits)

    def peak_tflops(self, dtype: DType) -> float:
        """Peak FMA throughput of the whole cluster for ``dtype``."""
        return (
            self.num_cores * self.lanes(dtype) * 2 * self.freq_ghz * 1e9 / 1e12
        )

    def special_cost(self, fn: str) -> int:
        """VPU cycles per element for special function ``fn``."""
        return self.special_cycles.get(fn, self.default_special_cycles)


@dataclass(frozen=True)
class HBMConfig:
    """On-package HBM: 32 GB per Gaudi (§3.1)."""

    capacity_bytes: int = 32 * GIB
    bandwidth_bytes_per_s: float = 1.0e12
    efficiency: float = 0.85

    def __post_init__(self) -> None:
        check_positive("HBMConfig.capacity_bytes", self.capacity_bytes)
        check_positive("HBMConfig.bandwidth_bytes_per_s", self.bandwidth_bytes_per_s)
        check_fraction("HBMConfig.efficiency", self.efficiency)

    @property
    def effective_bandwidth(self) -> float:
        """Sustained bandwidth in bytes/s."""
        return self.bandwidth_bytes_per_s * self.efficiency


@dataclass(frozen=True)
class SharedMemoryConfig:
    """On-die shared SRAM used for MME<->TPC exchange via DMA (§2.1)."""

    capacity_bytes: int = 24 * MIB
    bandwidth_bytes_per_s: float = 3.0e12

    def __post_init__(self) -> None:
        check_positive("SharedMemoryConfig.capacity_bytes", self.capacity_bytes)
        check_positive(
            "SharedMemoryConfig.bandwidth_bytes_per_s", self.bandwidth_bytes_per_s
        )


@dataclass(frozen=True)
class DMAConfig:
    """DMA engine streaming data between engines / HBM / shared memory.

    ``pipelined_exposure`` is the fraction of a staged inter-engine
    transfer that is *not* hidden under the consumer's compute — tile
    double-buffering through shared memory overlaps the rest.
    """

    bandwidth_bytes_per_s: float = 0.45e12
    latency_us: float = 1.0
    pipelined_exposure: float = 0.15

    def __post_init__(self) -> None:
        check_positive("DMAConfig.bandwidth_bytes_per_s", self.bandwidth_bytes_per_s)
        check_non_negative("DMAConfig.latency_us", self.latency_us)
        check_fraction("DMAConfig.pipelined_exposure", self.pipelined_exposure)


@dataclass(frozen=True)
class GaudiConfig:
    """Full single-Gaudi configuration."""

    name: str = "gaudi-hl205"
    mme: MMEConfig = field(default_factory=MMEConfig)
    tpc: TPCClusterConfig = field(default_factory=TPCClusterConfig)
    hbm: HBMConfig = field(default_factory=HBMConfig)
    shared: SharedMemoryConfig = field(default_factory=SharedMemoryConfig)
    dma: DMAConfig = field(default_factory=DMAConfig)
    default_dtype: DType = DType.BF16

    def with_tpc_cores(self, num_cores: int) -> "GaudiConfig":
        """Derive a config with a different TPC core count (ablation A3)."""
        return replace(self, tpc=replace(self.tpc, num_cores=num_cores))


def gaudi2_config() -> GaudiConfig:
    """A Gaudi2-like configuration for cross-generation what-ifs.

    The paper studies first-generation Gaudi; Gaudi2's public deltas are
    24 TPCs (vs 8), a roughly 3-4x larger MME, 96 GB HBM2E at ~2.45 TB/s
    and a beefier DMA. Since our Gaudi1 rates are calibrated to the
    paper's measurements rather than datasheets, Gaudi2 here scales the
    calibrated numbers by the public generation-over-generation ratios —
    fine for *relative* conclusions (does the MME/TPC imbalance
    persist?), not absolute Gaudi2 performance claims.
    """
    return GaudiConfig(
        name="gaudi2-hl225",
        mme=MMEConfig(rows=192, cols=192, freq_ghz=0.60),
        tpc=TPCClusterConfig(num_cores=24, freq_ghz=1.35),
        hbm=HBMConfig(capacity_bytes=96 * GIB,
                      bandwidth_bytes_per_s=2.45e12),
        shared=SharedMemoryConfig(capacity_bytes=48 * MIB),
        dma=DMAConfig(bandwidth_bytes_per_s=1.0e12),
    )


@dataclass(frozen=True)
class InterconnectConfig:
    """Two-tier interconnect of an HLS-1 cluster (§2.1, §3.1).

    Each Gaudi exposes on-chip RoCE v2 ports; inside an HLS-1 the eight
    cards are all-to-all connected, and the host reaches them via two
    PCIe Gen 4.0 switches. Past one box, HLS-1s federate over standard
    Ethernet NICs — a far thinner, higher-latency tier than the
    intra-box links (the ``eth_*`` fields), which is what makes the
    multi-box collective hierarchy worth modeling at all.
    """

    roce_bandwidth_bytes_per_s: float = 87.5e9  # 7x100GbE toward peers
    roce_latency_us: float = 2.0
    eth_bandwidth_bytes_per_s: float = 12.5e9  # 100GbE per box, inter-box
    eth_latency_us: float = 10.0

    def __post_init__(self) -> None:
        check_positive(
            "InterconnectConfig.roce_bandwidth_bytes_per_s",
            self.roce_bandwidth_bytes_per_s,
        )
        check_positive(
            "InterconnectConfig.eth_bandwidth_bytes_per_s",
            self.eth_bandwidth_bytes_per_s,
        )
        check_non_negative("InterconnectConfig.roce_latency_us", self.roce_latency_us)
        check_non_negative("InterconnectConfig.eth_latency_us", self.eth_latency_us)


@dataclass(frozen=True)
class HLS1Config:
    """Habana Labs System 1 cluster: ``boxes`` x ``num_cards`` Gaudis.

    ``num_cards`` keeps its PR-3 meaning of cards *per box* (so every
    existing single-box call site is untouched); ``boxes`` scales the
    population out over the inter-box Ethernet tier. ``boxes=1`` is the
    flat all-to-all HLS-1 and must stay byte-identical to it.
    """

    card: GaudiConfig = field(default_factory=GaudiConfig)
    num_cards: int = 8
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    boxes: int = 1

    def __post_init__(self) -> None:
        check_positive_int("HLS1Config.num_cards", self.num_cards)
        check_positive_int("HLS1Config.boxes", self.boxes)
        # Ring collectives split the payload into num_cards chunks, so
        # the box only supports power-of-two populations (1, 2, 4, 8),
        # and hierarchical rings need power-of-two box counts too.
        # Same predicate as interconnect.log2_cards, inlined because
        # interconnect imports this module.
        if self.num_cards & (self.num_cards - 1):
            raise ConfigError(
                "HLS1Config.num_cards must be a power of two, "
                f"got {self.num_cards}"
            )
        if self.boxes & (self.boxes - 1):
            raise ConfigError(
                f"HLS1Config.boxes must be a power of two, got {self.boxes}"
            )

    @property
    def total_cards(self) -> int:
        """Cluster-wide card population (boxes x cards-per-box)."""
        return self.num_cards * self.boxes
