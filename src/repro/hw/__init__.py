"""Simulated Gaudi hardware: configs, cost models, engines, fabric.

The package models the architecture the paper describes in §2.1–§2.2:
a Matrix Multiplication Engine, eight VLIW/SIMD Tensor Processing
Cores, a DMA engine moving data through shared memory, 32 GB of HBM,
and RoCE/PCIe links — with throughput constants calibrated against the
paper's own measurements (Table 2).
"""

from .config import (
    DMAConfig,
    GaudiConfig,
    gaudi2_config,
    HBMConfig,
    HLS1Config,
    InterconnectConfig,
    MMEConfig,
    SharedMemoryConfig,
    TPCClusterConfig,
)
from .backend import (
    Backend,
    GaudiBackend,
    backend_names,
    get_backend,
    register_backend,
)
from .bandwidth import BandwidthArbiter, DRAIN_EPS_BYTES, RateSegment
from .costmodel import (
    EAGER_DISPATCH_OVERHEAD_US,
    CostModel,
    CostParts,
    DMAModel,
    EngineKind,
    MatmulDims,
    MMEModel,
    OpClass,
    TPCModel,
    WorkItem,
    tpc_matmul_cycles,
)
from .energy import (
    EnergyBreakdown,
    EnergyConfig,
    joules_per_token,
    schedule_energy,
)
from .device import GaudiDevice, default_device
from .dtypes import (
    DType,
    TPC_VECTOR_BITS,
    dtype_info,
    itemsize,
    numpy_dtype,
    parse_dtype,
    simd_lanes,
)
from .interconnect import (
    CollectiveCost,
    RingAllReduce,
    data_parallel_step_time_us,
    scaling_efficiency,
)

__all__ = [
    "DMAConfig",
    "GaudiConfig",
    "gaudi2_config",
    "HBMConfig",
    "HLS1Config",
    "InterconnectConfig",
    "MMEConfig",
    "SharedMemoryConfig",
    "TPCClusterConfig",
    "Backend",
    "GaudiBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "BandwidthArbiter",
    "DRAIN_EPS_BYTES",
    "RateSegment",
    "CostModel",
    "CostParts",
    "EAGER_DISPATCH_OVERHEAD_US",
    "DMAModel",
    "EngineKind",
    "MatmulDims",
    "MMEModel",
    "OpClass",
    "TPCModel",
    "WorkItem",
    "tpc_matmul_cycles",
    "EnergyBreakdown",
    "EnergyConfig",
    "joules_per_token",
    "schedule_energy",
    "GaudiDevice",
    "default_device",
    "DType",
    "TPC_VECTOR_BITS",
    "dtype_info",
    "itemsize",
    "numpy_dtype",
    "parse_dtype",
    "simd_lanes",
    "CollectiveCost",
    "RingAllReduce",
    "data_parallel_step_time_us",
    "scaling_efficiency",
]
