"""Analytic cost models: how long does a unit of work take on each engine.

The simulator times every scheduled op with one of these models. A
:class:`WorkItem` is the engine-neutral description of one op's work
(FLOPs, memory traffic, matmul dims, special-function kind); the
per-engine models convert it to a duration in microseconds.

Model summary
-------------
MME (``MMEModel``)
    ``time = flops / (peak * spatial * fill) + launch``.
    ``spatial`` is output-tile coverage of the MAC array and ``fill``
    the K-pipeline fill factor. Large matmuls saturate ~14.6 TFLOPS as
    in Table 2. The steep falloff the paper measures at size 128
    (~2.3 TFLOPS) is *not* a rate effect: it is the per-call host
    dispatch cost of launching ``torch.bmm`` eagerly through
    PyTorch/SynapseAI, modeled by :data:`EAGER_DISPATCH_OVERHEAD_US`
    and charged by the Table 2 experiment, not by in-graph execution
    (a compiled graph launches once for many ops).

TPC (``TPCModel``)
    Elementwise ops: max(SIMD compute, HBM traffic). Reductions: low
    SIMD efficiency (§3.3: reductions are ill-suited to SIMD). Special
    functions: fixed VPU cycles per element. Matmuls forced onto the TPC
    (Table 2's custom kernel) go through :func:`tpc_matmul_cycles`, a
    tiled-kernel cycle count calibrated against the paper's TPC column.

DMA (``DMAModel``)
    latency + bytes / bandwidth.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field

from ..util.errors import ConfigError
from ..util.units import s_to_us
from .config import DMAConfig, GaudiConfig, HBMConfig, MMEConfig, TPCClusterConfig
from .dtypes import DType


class EngineKind(enum.Enum):
    """The compute/transfer engines visible in an accelerator trace.

    MME/TPC are the Gaudi split the paper profiles; PE is the
    processing-element grid of a wafer-scale dataflow backend
    (:mod:`repro.hw.backends.wse`). DMA/HOST/NIC are shared roles every
    backend maps onto its own channels.
    """

    MME = "MME"
    TPC = "TPC"
    DMA = "DMA"
    HOST = "HOST"
    #: the on-chip RoCE NIC driving the HLS-1 fabric (§2.1); occupied
    #: for the duration of a collective, timed by the fabric model
    NIC = "NIC"
    #: wafer-scale processing-element grid (Cerebras-style dataflow);
    #: runs every compute class, fed by streamed weights
    PE = "PE"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class OpClass(enum.Enum):
    """Coarse class of an op; determines which cost formula applies."""

    MATMUL = "matmul"
    ELEMENTWISE = "elementwise"
    REDUCTION = "reduction"
    SPECIAL = "special"
    DATA_MOVE = "data_move"
    HOST = "host"
    #: multi-card communication (all_reduce / all_gather / broadcast);
    #: free on a single card, timed by the fabric model across cards
    COLLECTIVE = "collective"


@dataclass(frozen=True)
class MatmulDims:
    """Dimensions of a (batched) matrix multiplication C[B,M,N] = A@Bm."""

    batch: int
    m: int
    n: int
    k: int

    @property
    def flops(self) -> float:
        """Multiply-accumulate FLOPs (2 per MAC)."""
        return 2.0 * self.batch * self.m * self.n * self.k


@dataclass(frozen=True, slots=True)
class WorkItem:
    """Engine-neutral description of one op's work.

    ``flops`` is the arithmetic work; ``bytes_read``/``bytes_written``
    the HBM traffic assuming no fusion (the compiler adjusts them when
    it fuses elementwise chains); ``elements`` the number of output
    elements (used by special-function and reduction costing);
    ``matmul`` carries GEMM dimensions when ``op_class`` is MATMUL;
    ``special_fn`` names the transcendental for SPECIAL ops.

    ``costs`` is the item's own price memo, filled by the runtime (see
    :func:`~repro.synapse.runtime.op_cost_parts`): a work item's price
    is a pure function of its fields and the pricing model's
    calibration, so an item shared by many schedules is priced once
    per calibration. It takes no part in equality, hashing or repr.
    """

    name: str
    op_class: OpClass
    flops: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    elements: int = 0
    dtype: DType = DType.BF16
    matmul: MatmulDims | None = None
    special_fn: str | None = None
    fixed_time_us: float = 0.0  # extra cost, e.g. GLU recompilation (§3.3)
    #: DATA_MOVE only: an inter-engine staging transfer that pipelines
    #: behind the consumer, exposing only a fraction of its bytes.
    pipelined: bool = False
    #: flat ``[price_key, engine, CostParts, ...]`` memo; the engine
    #: slot ``None`` holds the launch-free compute on the fusion engine
    costs: list = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def bytes_total(self) -> int:
        """Total HBM traffic in bytes."""
        return self.bytes_read + self.bytes_written


@dataclass(frozen=True, slots=True)
class CostParts:
    """One op's duration, decomposed for the contended runtime.

    ``time_us`` folds compute and memory into ``max(compute, mem) +
    serial``; this is the unfolded form. ``compute_us`` is the engine's
    arithmetic floor (overlaps memory traffic), ``hbm_bytes`` the HBM
    traffic the op must drain, ``rate_cap`` the fastest the op alone
    can drain it (bytes/s — finite only for DMA, whose channel is
    narrower than HBM), and ``launch_us``/``fixed_us`` serial overheads
    paid after the overlapped phase. Recomposing with the full
    effective bandwidth reproduces ``time_us`` exactly:

        max(compute_us, s_to_us(hbm_bytes / min(rate_cap, bw)))
            + launch_us + fixed_us
    """

    compute_us: float = 0.0
    hbm_bytes: float = 0.0
    rate_cap: float = math.inf
    launch_us: float = 0.0
    fixed_us: float = 0.0

    @property
    def serial_us(self) -> float:
        """Serial tail paid outside the compute/memory overlap."""
        return self.launch_us + self.fixed_us

    def uncontended_mem_us(self, bandwidth_bytes_per_s: float) -> float:
        """Drain time at the full (unshared) bandwidth, in us."""
        if self.hbm_bytes <= 0:
            return 0.0
        rate = min(self.rate_cap, bandwidth_bytes_per_s)
        return s_to_us(self.hbm_bytes / rate)

    def uncontended_time_us(self, bandwidth_bytes_per_s: float) -> float:
        """Recomposed duration assuming no bandwidth sharing."""
        return (
            max(self.compute_us, self.uncontended_mem_us(bandwidth_bytes_per_s))
            + self.launch_us
            + self.fixed_us
        )


#: Per-call host dispatch cost (us) of launching a single op eagerly
#: through PyTorch + SynapseAI, as the paper's Table 2 microbenchmark
#: does with ``torch.bmm``. Calibrated so a 128-sized batch-64 bmm
#: achieves ~2.35 TFLOPS (Table 2) despite the MME's ~14.7 peak.
#: In-graph execution does not pay this per op.
EAGER_DISPATCH_OVERHEAD_US = 94.0


class MMEModel:
    """Timing model of the Matrix Multiplication Engine."""

    def __init__(self, config: MMEConfig, hbm: HBMConfig):
        self.config = config
        self.hbm = hbm

    @staticmethod
    def dtype_rate_factor(dtype: DType) -> float:
        """MAC-array throughput multiplier per dtype.

        The calibration dtype is bf16 (factor 1.0); fp32 halves the
        array's MAC rate, int8 doubles it — matching how Gaudi's MME
        datapath scales with element width.
        """
        from .dtypes import itemsize as _itemsize

        return min(2.0, 2.0 / _itemsize(dtype))

    def achieved_tflops(self, dims: MatmulDims, dtype: DType = DType.BF16) -> float:
        """Sustained TFLOP/s for a matmul of the given dimensions."""
        cfg = self.config
        spatial = (min(dims.m, cfg.rows) / cfg.rows) * (
            min(dims.n, cfg.cols) / cfg.cols
        )
        fill = dims.k / (dims.k + cfg.fill_cycles)
        return cfg.peak_tflops * spatial * fill * self.dtype_rate_factor(dtype)

    def matmul_time_us(self, dims: MatmulDims, dtype: DType = DType.BF16) -> float:
        """Duration of a (batched) matmul, including launch overhead."""
        rate = self.achieved_tflops(dims, dtype) * 1e12  # FLOP/s
        compute_us = s_to_us(dims.flops / rate)
        return compute_us + self.config.launch_overhead_us

    def cost_parts(self, item: WorkItem) -> CostParts:
        """Decomposed cost; only MATMUL items run on the MME.

        Launch overhead sits inside ``matmul_time_us`` (it pipelines
        into the array fill), so it lands in ``compute_us`` here.
        """
        if item.op_class is not OpClass.MATMUL or item.matmul is None:
            raise ConfigError(
                f"MME can only execute matmul work, got {item.op_class} "
                f"for op {item.name!r}"
            )
        return CostParts(
            compute_us=self.matmul_time_us(item.matmul, item.dtype),
            hbm_bytes=float(item.bytes_total),
            fixed_us=item.fixed_time_us,
        )

    def time_us(self, item: WorkItem) -> float:
        """Duration of ``item``; only MATMUL items run on the MME."""
        parts = self.cost_parts(item)
        mem_us = s_to_us(parts.hbm_bytes / self.hbm.effective_bandwidth)
        return max(parts.compute_us, mem_us) + parts.launch_us + parts.fixed_us


# Calibrated constants of the tiled TPC matmul kernel cycle model (see
# repro.tpc.kernels.bmm for the kernel itself). Global vector accesses
# are double-buffered (half the architectural 4 cycles is exposed),
# inputs are re-fetched ~1.75x due to finite local memory, and each
# index-space member (4 output rows) pays a ~40-cycle prologue. The
# VLIW loop sustains 97.2 % of SIMD peak.
TPC_MATMUL_LOAD_CYCLES_PER_VECTOR = 2.0
TPC_MATMUL_STORE_CYCLES_PER_VECTOR = 2.0
TPC_MATMUL_INPUT_REFETCH = 1.75
TPC_MATMUL_PROLOGUE_CYCLES = 40.0
TPC_MATMUL_ROWS_PER_MEMBER = 4
TPC_MATMUL_LOOP_EFF = 0.972


def tpc_matmul_cycles(
    config: TPCClusterConfig, dtype: DType, dims: MatmulDims
) -> float:
    """Cycle count of the tiled batched-matmul TPC kernel.

    This is the analytic form of the kernel in
    :mod:`repro.tpc.kernels.bmm` (which the paper takes from Habana's
    ``Habana_Custom_Kernel`` repository); per-core cycles multiplied out
    over the cluster. Calibrated against the paper's Table 2 TPC column
    (1.86 -> 2.19 TFLOPS from size 128 to 2048).
    """
    lanes = config.lanes(dtype)
    cores = config.num_cores
    fma = dims.batch * dims.m * dims.k * math.ceil(dims.n / lanes)
    fma_cycles = fma / TPC_MATMUL_LOOP_EFF
    in_elements = dims.batch * (dims.m * dims.k + dims.k * dims.n)
    load_cycles = (
        in_elements / lanes
    ) * TPC_MATMUL_LOAD_CYCLES_PER_VECTOR * TPC_MATMUL_INPUT_REFETCH
    out_elements = dims.batch * dims.m * dims.n
    store_cycles = (out_elements / lanes) * TPC_MATMUL_STORE_CYCLES_PER_VECTOR
    members = dims.batch * math.ceil(dims.m / TPC_MATMUL_ROWS_PER_MEMBER)
    prologue_cycles = members * TPC_MATMUL_PROLOGUE_CYCLES
    total = fma_cycles + load_cycles + store_cycles + prologue_cycles
    return total / cores


# -- Attention kernel-pack analytic twins (GFormer-style lowerings) ----------
#
# The kernel pack in :mod:`repro.tpc.kernels` (fused_softmax,
# windowed_attention, flash_attention) replaces the naive attention cone
# with fused kernels. These helpers are their cost-model twins: they
# shape the :class:`MatmulDims` that the ``attention_lowering`` compiler
# pass puts on its work items, so the aggregate simulator prices exactly
# the MME-offload and HBM-traffic structure the mini-ISA kernels
# implement (thin-K basis GEMM, banded sweeps, tile-pair visit counts).

#: Width of the fixed exponential basis the fused softmax multiplies
#: against on the MME (GFormer §3: exp-as-matmul offload). A thin K
#: keeps the MAC array's fill factor low (``k / (k + fill_cycles)``),
#: which is the honest price of trading TPC special-function cycles for
#: MME MACs — the offload still wins because the op is memory-bound.
EXP_OFFLOAD_BASIS = 8


def exp_offload_dims(
    shape: tuple[int, ...], basis: int = EXP_OFFLOAD_BASIS
) -> MatmulDims:
    """GEMM dims of evaluating ``exp`` over ``shape`` on the MME.

    Every output row of the tensor becomes one GEMM row multiplied
    against a fixed ``last x basis`` interpolation basis, i.e. a single
    tall-skinny matmul of ``(rows, basis) @ (basis, last)``.
    """
    last = int(shape[-1]) if shape else 1
    numel = int(math.prod(shape)) if shape else 1
    rows = max(1, numel // max(1, last))
    return MatmulDims(1, rows, max(1, last), max(1, int(basis)))


@functools.lru_cache(maxsize=None)
def attention_window_span(seq: int, window: int, causal: bool) -> float:
    """Mean number of keys each query attends to under a sliding window.

    Causal windows cover the ``window`` most recent positions (self
    included); bidirectional windows are centered on the query with the
    extra slot on the future side, matching the kernel's mask.
    """
    seq = int(seq)
    w = max(1, min(int(window), seq))
    if causal:
        if seq <= w:
            total = seq * (seq + 1) // 2
        else:
            total = w * (w + 1) // 2 + (seq - w) * w
        return total / seq
    lo_off = (w - 1) // 2
    hi_off = w // 2
    total = 0
    for i in range(seq):
        total += min(seq, i + hi_off + 1) - max(0, i - lo_off)
    return total / seq


def windowed_attention_dims(
    batch: int, seq: int, head_dim: int, window: int, causal: bool
) -> MatmulDims:
    """TPC-kernel GEMM twin of the banded QK^T -> softmax -> V sweep.

    The windowed kernel touches ``span`` keys per query (the mean band
    width), paying two GEMV sweeps per in-window key — scores and the
    value gather — hence ``k = 2 * head_dim``. Pricing this through
    :func:`tpc_matmul_cycles` reproduces the kernel's FMA bundle count;
    the softmax-on-the-strip epilogue rides in the model's loop/prologue
    overhead terms.
    """
    span = max(1, round(attention_window_span(seq, window, causal)))
    return MatmulDims(max(1, int(batch)), max(1, int(seq)), span,
                      2 * max(1, int(head_dim)))


@functools.lru_cache(maxsize=None)
def flash_attention_tile_pairs(
    seq: int, q_block: int, k_block: int, causal: bool
) -> int:
    """Number of (Q-tile, K-tile) pairs the flash kernel actually visits.

    Causal masking lets whole tiles above the diagonal be skipped before
    any work is issued — the tile-level analogue of the windowed
    kernel's block skipping.
    """
    seq = int(seq)
    qb = max(1, min(int(q_block), seq))
    kb = max(1, min(int(k_block), seq))
    pairs = 0
    for lo in range(0, seq, qb):
        hi = min(seq, lo + qb)  # one past the tile's last query row
        limit = hi if causal else seq
        pairs += math.ceil(limit / kb)
    return pairs


def flash_attention_dims(
    batch: int, seq: int, head_dim: int, q_block: int, k_block: int,
    causal: bool,
) -> MatmulDims:
    """MME twin of the tiled online-softmax attention kernel.

    Each visited tile pair costs two small GEMMs (Q K^T and P V), so the
    batch dimension counts ``2 * pairs`` tiles of ``q_block x k_block``
    contracting over ``head_dim``. For a non-causal sweep this tiles the
    full attention FLOPs exactly; causal sweeps shrink with the skipped
    tiles. The small ``m`` under-fills the MAC array — the honest
    fill-factor price of tiling — while HBM traffic drops to the O(seq)
    Q/K/V/O streams because the score matrix never leaves local memory.
    """
    pairs = flash_attention_tile_pairs(seq, q_block, k_block, causal)
    qb = max(1, min(int(q_block), int(seq)))
    kb = max(1, min(int(k_block), int(seq)))
    return MatmulDims(2 * max(1, int(batch)) * pairs, qb, kb,
                      max(1, int(head_dim)))


class TPCModel:
    """Timing model of the 8-core TPC cluster."""

    def __init__(self, config: TPCClusterConfig, hbm: HBMConfig):
        self.config = config
        self.hbm = hbm

    def _mem_time_us(self, item: WorkItem) -> float:
        return s_to_us(item.bytes_total / self.hbm.effective_bandwidth)

    def matmul_time_us(self, dims: MatmulDims, dtype: DType) -> float:
        """Duration of a matmul forced onto the TPC (custom kernel)."""
        cycles = tpc_matmul_cycles(self.config, dtype, dims)
        compute_us = cycles / (self.config.freq_ghz * 1e3)
        return compute_us + self.config.launch_overhead_us

    def cost_parts(self, item: WorkItem) -> CostParts:
        """Decomposed cost of ``item`` on the TPC cluster.

        Matmuls fold launch into ``compute_us`` (same as the MME path);
        every other class pays it as a serial tail. DATA_MOVE items are
        pure traffic (``compute_us`` 0).
        """
        cfg = self.config
        launch = cfg.launch_overhead_us
        bytes_total = float(item.bytes_total)
        if item.op_class is OpClass.MATMUL:
            if item.matmul is None:
                raise ConfigError(f"matmul op {item.name!r} missing dims")
            return CostParts(
                compute_us=self.matmul_time_us(item.matmul, item.dtype),
                hbm_bytes=bytes_total,
                fixed_us=item.fixed_time_us,
            )
        if item.op_class is OpClass.ELEMENTWISE:
            rate = cfg.peak_tflops(item.dtype) * 1e12 * cfg.elementwise_eff
            compute_us = s_to_us(item.flops / rate) if item.flops else 0.0
        elif item.op_class is OpClass.REDUCTION:
            rate = cfg.peak_tflops(item.dtype) * 1e12 * cfg.reduction_eff
            compute_us = s_to_us(item.flops / rate) if item.flops else 0.0
        elif item.op_class is OpClass.SPECIAL:
            fn = item.special_fn or "generic"
            cycles_per_el = cfg.special_cost(fn)
            lanes = cfg.lanes(item.dtype)
            cycles = item.elements * cycles_per_el / (lanes * cfg.num_cores)
            compute_us = cycles / (cfg.freq_ghz * 1e3)
        elif item.op_class is OpClass.DATA_MOVE:
            compute_us = 0.0
        else:
            raise ConfigError(
                f"TPC cannot execute op class {item.op_class} for {item.name!r}"
            )
        return CostParts(
            compute_us=compute_us,
            hbm_bytes=bytes_total,
            launch_us=launch,
            fixed_us=item.fixed_time_us,
        )

    def time_us(self, item: WorkItem) -> float:
        """Duration of ``item`` on the TPC cluster."""
        parts = self.cost_parts(item)
        mem_us = self._mem_time_us(item)
        return max(parts.compute_us, mem_us) + parts.launch_us + parts.fixed_us


class DMAModel:
    """Timing model of the DMA engine (MME<->TPC via shared memory)."""

    def __init__(self, config: DMAConfig):
        self.config = config

    def transfer_time_us(self, num_bytes: int, *, pipelined: bool = False) -> float:
        """Duration to move ``num_bytes`` between engines.

        ``pipelined`` transfers stage tiles through shared memory while
        the consumer already computes on earlier tiles; only
        ``pipelined_exposure`` of the traffic shows up as exposed time
        (this is why the DMA lane in the paper's traces is busy without
        serializing every producer/consumer pair).
        """
        if num_bytes < 0:
            raise ConfigError(f"transfer bytes must be >= 0, got {num_bytes}")
        effective = num_bytes * (
            self.config.pipelined_exposure if pipelined else 1.0
        )
        return self.config.latency_us + s_to_us(
            effective / self.config.bandwidth_bytes_per_s
        )

    def cost_parts(self, item: WorkItem) -> CostParts:
        """Decomposed cost of a DATA_MOVE work item.

        Pure traffic behind a fixed channel latency; the exposed bytes
        (after pipelining) drain at most at the DMA link rate, which is
        the only finite ``rate_cap`` in the model.
        """
        if item.op_class is not OpClass.DATA_MOVE:
            raise ConfigError(
                f"DMA can only execute data moves, got {item.op_class} "
                f"for op {item.name!r}"
            )
        exposed = item.bytes_total * (
            self.config.pipelined_exposure if item.pipelined else 1.0
        )
        return CostParts(
            hbm_bytes=exposed,
            rate_cap=self.config.bandwidth_bytes_per_s,
            launch_us=self.config.latency_us,
            fixed_us=item.fixed_time_us,
        )

    def time_us(self, item: WorkItem) -> float:
        """Duration of a DATA_MOVE work item."""
        if item.op_class is not OpClass.DATA_MOVE:
            raise ConfigError(
                f"DMA can only execute data moves, got {item.op_class} "
                f"for op {item.name!r}"
            )
        return (
            self.transfer_time_us(item.bytes_total, pipelined=item.pipelined)
            + item.fixed_time_us
        )


def price_key(model) -> str:
    """Value key of a cost ``model``'s calibration for price memos: the
    model's class and its config's ``repr`` (interned, so equal
    calibrations compare by identity)."""
    cls = type(model)
    return sys.intern(f"{cls.__module__}.{cls.__qualname__}:{model.config!r}")


@dataclass
class CostModel:
    """Facade bundling the per-engine models for one Gaudi config."""

    config: GaudiConfig
    mme: MMEModel = field(init=False)
    tpc: TPCModel = field(init=False)
    dma: DMAModel = field(init=False)

    def __post_init__(self) -> None:
        self.mme = MMEModel(self.config.mme, self.config.hbm)
        self.tpc = TPCModel(self.config.tpc, self.config.hbm)
        self.dma = DMAModel(self.config.dma)

    @functools.cached_property
    def price_key(self) -> str:
        """The calibration's value key, computed once per model.

        Prices memoized under it (a work item's ``costs``, a schedule's
        runtime prep) are shared by every model of this class with an
        equal config and never by a different calibration or backend:
        the key names the model's class, and the config's ``repr`` its
        class and every constant.
        """
        return price_key(self)

    # -- backend-neutral facade (shared with WSECostModel) -------------------
    # The runtime prices schedules through these three members instead
    # of reaching into Gaudi config fields, so any backend's cost model
    # exposing the same trio plugs into the same event loop.

    @property
    def mem_bandwidth(self) -> float:
        """Shared memory-channel rate the BandwidthArbiter divides
        (bytes/s) — HBM on Gaudi."""
        return self.config.hbm.effective_bandwidth

    @property
    def fused_launch_us(self) -> float:
        """Per-launch overhead of a fused elementwise chain."""
        return self.config.tpc.launch_overhead_us

    @property
    def fusion_engine(self) -> EngineKind:
        """Engine fused elementwise chains execute on."""
        return EngineKind.TPC

    def fused_parts(
        self, compute_us: float, traffic_bytes: int, fixed_us: float
    ) -> CostParts:
        """Decomposed cost of a fused chain with the given compute sum
        and chain-external traffic. On Gaudi the traffic drains through
        HBM (the arbiter's shared pool) behind one TPC launch."""
        return CostParts(
            compute_us=compute_us,
            hbm_bytes=float(traffic_bytes),
            launch_us=self.fused_launch_us,
            fixed_us=fixed_us,
        )

    def time_us(self, engine: EngineKind, item: WorkItem) -> float:
        """Duration of ``item`` on ``engine``."""
        if engine is EngineKind.MME:
            return self.mme.time_us(item)
        if engine is EngineKind.TPC:
            return self.tpc.time_us(item)
        if engine is EngineKind.DMA:
            return self.dma.time_us(item)
        if engine is EngineKind.HOST:
            return item.fixed_time_us
        if engine is EngineKind.NIC:
            # Single-card view: a collective with no peers is a no-op.
            # Across cards the runtime times it from the fabric plan
            # (per-ring-step events), not from this closed form.
            return item.fixed_time_us
        raise ConfigError(f"unknown engine {engine!r}")

    def cost_parts(self, engine: EngineKind, item: WorkItem) -> CostParts:
        """Decomposed cost of ``item`` on ``engine``."""
        if engine is EngineKind.MME:
            return self.mme.cost_parts(item)
        if engine is EngineKind.TPC:
            return self.tpc.cost_parts(item)
        if engine is EngineKind.DMA:
            return self.dma.cost_parts(item)
        if engine in (EngineKind.HOST, EngineKind.NIC):
            return CostParts(fixed_us=item.fixed_time_us)
        raise ConfigError(f"unknown engine {engine!r}")
