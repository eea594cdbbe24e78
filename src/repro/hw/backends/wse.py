"""Cerebras-style wafer-scale-engine backend (arXiv 2409.00287).

The WSE inverts Gaudi's memory story. Gaudi keeps weights *and*
activations in HBM and streams both through the MME/TPC split; the
wafer keeps **activations resident** in on-wafer SRAM next to the
processing-element (PE) grid and **streams weights** in from external
MemoryX units, layer by layer (Cerebras "weight streaming"). The
consequences this model reproduces:

* matmul throughput is ``min(PE-grid compute, weight-stream drain)``
  — the MemoryX link replaces HBM as the shared channel the
  :class:`~repro.hw.bandwidth.BandwidthArbiter` divides, and a
  matmul's channel traffic is its *weight* bytes (``k x n``), not its
  activation bytes;
* elementwise/reduction/special work reads and writes wafer SRAM,
  which is fast enough (PB/s) that those ops are compute-bound — they
  put **zero** traffic on the arbiter's pool;
* there is no KV-cache HBM pressure term: decode-time caches live in
  wafer SRAM against :class:`WaferSRAMConfig.capacity_bytes`, so
  serving pressure is capacity-shaped, not bandwidth-shaped;
* everything computes on one engine (the PE grid) — there is no
  MME-idle "blank area" of the kind the paper's Fig. 4 shows, which
  is exactly what makes the A18 cross-backend ablation interesting.

Constants follow the CS-2 system arXiv 2409.00287 benchmarks: 850k
PEs at 1.1 GHz (~7.5 PFLOP/s half-precision peak), 40 GiB of wafer
SRAM at ~20 PB/s, and an aggregate MemoryX streaming link in the
TB/s range. The pricing twins for the attention kernel pack come for
free: kernel-pack ops carry :class:`~repro.hw.costmodel.MatmulDims`
twins, and the PE-grid model prices any GEMM geometry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from ...util.errors import ConfigError
from ...util.units import s_to_us
from ..backend import Backend
from ..config import GIB, DMAConfig
from ..costmodel import (
    CostParts,
    DMAModel,
    EngineKind,
    MatmulDims,
    OpClass,
    WorkItem,
    price_key,
)
from ..dtypes import DType, itemsize
from ...util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True)
class PEGridConfig:
    """The wafer's processing-element grid (CS-2 scale).

    850k PEs, each a small SIMD core with local memory, connected by a
    2D mesh. Matmuls map as a dataflow systolic wave across the grid:
    coverage of the mesh by the GEMM's (m, n) extents plays the role
    Gaudi's MAC-array spatial term plays, and a wavefront fill factor
    in ``k`` mirrors the MME's pipeline fill.
    """

    cores: int = 850_000
    freq_ghz: float = 1.1
    #: FLOPs per core-cycle a GEMM wave sustains (FMA over SIMD-4)
    matmul_flops_per_cycle: float = 8.0
    #: FLOPs per core-cycle for vector (non-GEMM) work
    vector_flops_per_cycle: float = 2.0
    #: wavefront fill cycles of the systolic reduction in ``k``
    fill_cycles: int = 32
    #: dataflow dispatch cost per scheduled op — far below Gaudi's TPC
    #: launch because there is no host kernel-launch round-trip
    launch_overhead_us: float = 0.4
    elementwise_eff: float = 0.90
    #: fabric-tree reductions beat a SIMD core's horizontal combines
    reduction_eff: float = 0.30
    special_cycles: dict[str, int] = field(
        default_factory=lambda: {
            "exp": 12,
            "log": 12,
            "sqrt": 8,
            "rsqrt": 8,
            "erf": 14,
            "tanh": 12,
            "sigmoid": 12,
            "pow": 16,
            "div": 6,
        }
    )
    default_special_cycles: int = 12

    def __post_init__(self) -> None:
        check_positive_int("PEGridConfig.cores", self.cores)
        check_positive("PEGridConfig.freq_ghz", self.freq_ghz)
        check_positive(
            "PEGridConfig.matmul_flops_per_cycle", self.matmul_flops_per_cycle
        )
        check_positive(
            "PEGridConfig.vector_flops_per_cycle", self.vector_flops_per_cycle
        )
        check_non_negative(
            "PEGridConfig.launch_overhead_us", self.launch_overhead_us
        )
        check_fraction("PEGridConfig.elementwise_eff", self.elementwise_eff)
        check_fraction("PEGridConfig.reduction_eff", self.reduction_eff)

    @property
    def grid_side(self) -> int:
        """Side length of the (square-modeled) PE mesh."""
        return max(1, int(math.isqrt(self.cores)))

    @property
    def peak_matmul_tflops(self) -> float:
        """Whole-grid GEMM peak (half precision), TFLOP/s."""
        return (
            self.cores * self.matmul_flops_per_cycle * self.freq_ghz * 1e9
            / 1e12
        )

    @property
    def peak_vector_tflops(self) -> float:
        """Whole-grid vector peak, TFLOP/s."""
        return (
            self.cores * self.vector_flops_per_cycle * self.freq_ghz * 1e9
            / 1e12
        )

    def special_cost(self, fn: str) -> int:
        """Cycles per element of special function ``fn``."""
        return self.special_cycles.get(fn, self.default_special_cycles)


@dataclass(frozen=True)
class WaferSRAMConfig:
    """On-wafer SRAM distributed across the PE grid (CS-2: 40 GiB).

    Activations (and decode KV caches) live here; its bandwidth is so
    far above the streaming link that SRAM-resident traffic never
    reaches the shared arbiter pool.
    """

    capacity_bytes: int = 40 * GIB
    bandwidth_bytes_per_s: float = 20.0e15
    efficiency: float = 0.90

    def __post_init__(self) -> None:
        check_positive("WaferSRAMConfig.capacity_bytes", self.capacity_bytes)
        check_positive(
            "WaferSRAMConfig.bandwidth_bytes_per_s",
            self.bandwidth_bytes_per_s,
        )
        check_fraction("WaferSRAMConfig.efficiency", self.efficiency)

    @property
    def effective_bandwidth(self) -> float:
        """Sustained wafer-SRAM bandwidth in bytes/s."""
        return self.bandwidth_bytes_per_s * self.efficiency


@dataclass(frozen=True)
class MemoryXConfig:
    """External weight store + the streaming links onto the wafer.

    This is the WSE's shared, contended channel — the HBM analog. Every
    matmul drains its weight bytes through it, and spill/staging
    transfers ride the same links.
    """

    bandwidth_bytes_per_s: float = 2.4e12
    latency_us: float = 2.0
    #: fraction of a pipelined staging transfer's bytes left exposed
    #: (weight broadcast for layer L+1 overlaps layer L's compute)
    pipelined_exposure: float = 0.15

    def __post_init__(self) -> None:
        check_positive(
            "MemoryXConfig.bandwidth_bytes_per_s", self.bandwidth_bytes_per_s
        )
        check_non_negative("MemoryXConfig.latency_us", self.latency_us)
        check_fraction(
            "MemoryXConfig.pipelined_exposure", self.pipelined_exposure
        )


@dataclass(frozen=True)
class WSEConfig:
    """Full wafer-scale-engine system model (one CS-2-class device)."""

    name: str = "wse2-cs2"
    pe: PEGridConfig = field(default_factory=PEGridConfig)
    sram: WaferSRAMConfig = field(default_factory=WaferSRAMConfig)
    memoryx: MemoryXConfig = field(default_factory=MemoryXConfig)
    default_dtype: DType = DType.BF16


class PEGridModel:
    """Timing model of the PE grid: GEMM waves + vector work."""

    def __init__(self, config: PEGridConfig, memoryx: MemoryXConfig):
        self.config = config
        self.memoryx = memoryx

    @staticmethod
    def dtype_rate_factor(dtype: DType) -> float:
        """Grid throughput multiplier per dtype (bf16 calibrated)."""
        return min(2.0, 2.0 / itemsize(dtype))

    def achieved_tflops(
        self, dims: MatmulDims, dtype: DType = DType.BF16
    ) -> float:
        """Sustained GEMM TFLOP/s at the given geometry.

        Spatial coverage of the mesh by (m, n) under-fills the wave for
        small GEMMs; the ``k`` wavefront fill mirrors the MME pipeline.
        """
        cfg = self.config
        side = cfg.grid_side
        spatial = (min(dims.m, side) / side) * (min(dims.n, side) / side)
        fill = dims.k / (dims.k + cfg.fill_cycles)
        return (
            cfg.peak_matmul_tflops * spatial * fill
            * self.dtype_rate_factor(dtype)
        )

    def matmul_time_us(
        self, dims: MatmulDims, dtype: DType = DType.BF16
    ) -> float:
        """Compute time of a GEMM wave, launch folded in."""
        rate = self.achieved_tflops(dims, dtype) * 1e12
        return s_to_us(dims.flops / rate) + self.config.launch_overhead_us

    @staticmethod
    def stream_bytes(item: WorkItem) -> int:
        """Weight bytes a matmul drains from MemoryX.

        The stationary (k x n) operand is broadcast across the grid
        once per layer invocation — the batch dimension reuses it, so
        it does not multiply. Activation operands stay in SRAM.
        """
        dims = item.matmul
        if dims is None:
            return 0
        return dims.k * dims.n * itemsize(item.dtype)

    def cost_parts(self, item: WorkItem) -> CostParts:
        """Decomposed cost of ``item`` on the PE grid.

        Matmuls put their weight-stream bytes on the shared MemoryX
        channel; everything else is SRAM-resident and contributes no
        arbiter traffic.
        """
        cfg = self.config
        if item.op_class is OpClass.MATMUL:
            if item.matmul is None:
                raise ConfigError(f"matmul op {item.name!r} missing dims")
            return CostParts(
                compute_us=self.matmul_time_us(item.matmul, item.dtype),
                hbm_bytes=float(self.stream_bytes(item)),
                rate_cap=self.memoryx.bandwidth_bytes_per_s,
                fixed_us=item.fixed_time_us,
            )
        if item.op_class is OpClass.ELEMENTWISE:
            rate = cfg.peak_vector_tflops * 1e12 * cfg.elementwise_eff
            compute_us = s_to_us(item.flops / rate) if item.flops else 0.0
        elif item.op_class is OpClass.REDUCTION:
            rate = cfg.peak_vector_tflops * 1e12 * cfg.reduction_eff
            compute_us = s_to_us(item.flops / rate) if item.flops else 0.0
        elif item.op_class is OpClass.SPECIAL:
            fn = item.special_fn or "generic"
            cycles = item.elements * cfg.special_cost(fn) / cfg.cores
            compute_us = cycles / (cfg.freq_ghz * 1e3)
        elif item.op_class is OpClass.DATA_MOVE:
            # on-wafer routing: the mesh moves data as part of dataflow
            compute_us = 0.0
        else:
            raise ConfigError(
                f"PE grid cannot execute op class {item.op_class} "
                f"for {item.name!r}"
            )
        return CostParts(
            compute_us=compute_us,
            launch_us=cfg.launch_overhead_us,
            fixed_us=item.fixed_time_us,
        )

    def time_us(self, item: WorkItem, stream_bandwidth: float) -> float:
        """Uncontended duration at the given MemoryX rate."""
        parts = self.cost_parts(item)
        return parts.uncontended_time_us(stream_bandwidth)


@dataclass
class WSECostModel:
    """Facade bundling the WSE per-engine models (CostModel twin).

    Exposes the same surface the runtime prices Gaudi through:
    ``time_us``/``cost_parts`` keyed by engine, plus the backend-neutral
    trio ``mem_bandwidth``/``fused_launch_us``/``fusion_engine`` and
    the ``fused_parts`` hook for fused elementwise chains.
    """

    config: WSEConfig
    pe: PEGridModel = field(init=False)
    stream: DMAModel = field(init=False)

    def __post_init__(self) -> None:
        self.pe = PEGridModel(self.config.pe, self.config.memoryx)
        # Staging/spill transfers ride the MemoryX links; reuse the DMA
        # channel model with the streaming link's constants.
        self.stream = DMAModel(DMAConfig(
            bandwidth_bytes_per_s=self.config.memoryx.bandwidth_bytes_per_s,
            latency_us=self.config.memoryx.latency_us,
            pipelined_exposure=self.config.memoryx.pipelined_exposure,
        ))

    @functools.cached_property
    def price_key(self) -> str:
        """The calibration's value key (see ``CostModel.price_key``)."""
        return price_key(self)

    @property
    def mem_bandwidth(self) -> float:
        """The shared contended channel: the MemoryX streaming links."""
        return self.config.memoryx.bandwidth_bytes_per_s

    @property
    def fused_launch_us(self) -> float:
        return self.config.pe.launch_overhead_us

    @property
    def fusion_engine(self) -> EngineKind:
        return EngineKind.PE

    def fused_parts(
        self, compute_us: float, traffic_bytes: int, fixed_us: float
    ) -> CostParts:
        """Fused chains drain their external traffic through wafer
        SRAM, not the MemoryX channel — fold the (tiny) SRAM drain into
        the compute floor and put nothing on the arbiter."""
        sram_us = s_to_us(
            traffic_bytes / self.config.sram.effective_bandwidth
        )
        return CostParts(
            compute_us=max(compute_us, sram_us),
            launch_us=self.fused_launch_us,
            fixed_us=fixed_us,
        )

    def time_us(self, engine: EngineKind, item: WorkItem) -> float:
        """Duration of ``item`` on ``engine``."""
        if engine is EngineKind.PE:
            return self.pe.time_us(item, self.mem_bandwidth)
        if engine is EngineKind.DMA:
            return self.stream.time_us(item)
        if engine in (EngineKind.HOST, EngineKind.NIC):
            return item.fixed_time_us
        raise ConfigError(f"WSE has no engine {engine!r}")

    def cost_parts(self, engine: EngineKind, item: WorkItem) -> CostParts:
        """Decomposed cost of ``item`` on ``engine``."""
        if engine is EngineKind.PE:
            return self.pe.cost_parts(item)
        if engine is EngineKind.DMA:
            return self.stream.cost_parts(item)
        if engine in (EngineKind.HOST, EngineKind.NIC):
            return CostParts(fixed_us=item.fixed_time_us)
        raise ConfigError(f"WSE has no engine {engine!r}")


class WSEDevice:
    """One simulated wafer-scale engine (GaudiDevice twin): its cost
    model and its clock."""

    def __init__(self, config: WSEConfig | None = None):
        self.config = config or WSEConfig()
        self.cost_model = WSECostModel(self.config)
        #: device clock: the latest completion time of any executed op
        self.now = 0.0

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        cfg = self.config
        return (
            f"{cfg.name}: {cfg.pe.cores / 1e3:.0f}k PEs "
            f"({cfg.pe.peak_matmul_tflops / 1e3:.1f} PFLOPS peak), "
            f"SRAM {cfg.sram.capacity_bytes / (1 << 30):.0f} GiB, "
            f"MemoryX {cfg.memoryx.bandwidth_bytes_per_s / 1e12:.1f} TB/s"
        )


class WSEBackend(Backend):
    """Weight-streaming dataflow backend: one PE grid, streamed weights."""

    name = "wse"
    engines = (
        EngineKind.PE, EngineKind.DMA, EngineKind.HOST, EngineKind.NIC,
    )
    matmul_engine = EngineKind.PE
    vector_engine = EngineKind.PE
    fusion_engine = EngineKind.PE
    dma_engine = EngineKind.DMA
    host_engine = EngineKind.HOST
    collective_engine = EngineKind.NIC
    # the Gaudi row-slicing pass models MME/TPC ping-pong; a single
    # compute grid has no cross-engine bubble to fill
    supports_tpc_slicing = False

    def engine_for(self, opdef) -> EngineKind:
        """Everything computes on the PE grid; shared roles keep their
        Gaudi engines (HOST recompiles, NIC collectives)."""
        if opdef.engine in (EngineKind.HOST, EngineKind.NIC):
            return opdef.engine
        if opdef.op_class is OpClass.COLLECTIVE:
            return EngineKind.NIC
        if opdef.op_class is OpClass.HOST:
            return EngineKind.HOST
        return EngineKind.PE

    def default_config(self) -> WSEConfig:
        return WSEConfig()

    def owns_config(self, config) -> bool:
        return isinstance(config, WSEConfig)

    def cost_model(self, config) -> WSECostModel:
        return WSECostModel(config)

    def memory_capacity_bytes(self, config) -> int:
        return config.sram.capacity_bytes

    def make_device(self, config=None) -> WSEDevice:
        return WSEDevice(self.coerce_config(config))

    def graph_warnings(self, graph) -> list[str]:
        """Weight streaming wants 2-D parameter matmuls; flag params so
        large a single layer's stream would dominate its compute."""
        findings: list[str] = []
        link = MemoryXConfig().bandwidth_bytes_per_s
        for _, value in sorted(graph.values.items()):
            if value.kind != "param":
                continue
            stream_us = s_to_us(value.nbytes / link)
            if stream_us > 1e4:  # 10 ms for one weight broadcast
                findings.append(
                    f"param {value.name or value.vid} streams for "
                    f"{stream_us / 1e3:.1f} ms per layer invocation — "
                    "consider sharding it across wafer regions"
                )
        return findings
