"""Table 2 experiment: MME vs TPC batched matrix multiplication.

§3.2: ``torch.bmm`` (batch 64) on the MME versus a custom TPC kernel
from Habana_Custom_Kernel, across square sizes 128..2048, measured
with the SynapseAI profiler. Here the MME side is timed by the
calibrated :class:`~repro.hw.costmodel.MMEModel` plus the per-call
eager dispatch cost, and the TPC side by actually launching the
:class:`~repro.tpc.kernels.bmm.BatchMatmulKernel` on the
:class:`~repro.tpc.simulator.TPCSimulator`.

Note on the time columns: the paper ran a *different* (unreported)
iteration count per size, so only the TFLOPS and speedup columns are
comparable across implementations; we report single-call times and
check rates + speedups against the paper's bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.config import GaudiConfig
from ..hw.costmodel import (
    EAGER_DISPATCH_OVERHEAD_US,
    MatmulDims,
    MMEModel,
)
from ..hw.dtypes import DType
from ..tpc import REGISTRY, TPCSimulator
from ..util.tabulate import render_table
from ..util.units import tflops, us_to_ms
from .reference import TABLE2, ShapeCheck, ratio_check

BATCH = 64
SIZES = tuple(row.size for row in TABLE2)


@dataclass(frozen=True)
class MmeVsTpcRow:
    """One measured row (times are per single bmm call)."""

    size: int
    t_mme_ms: float
    f_mme_tflops: float
    t_tpc_ms: float
    f_tpc_tflops: float

    @property
    def speedup(self) -> float:
        """MME advantage: T_TPC / T_MME."""
        return self.t_tpc_ms / self.t_mme_ms


@dataclass
class MmeVsTpcResult:
    """The reproduced Table 2."""

    rows: list[MmeVsTpcRow]
    config: GaudiConfig = field(default_factory=GaudiConfig)

    def checks(self) -> list[ShapeCheck]:
        """Rate and speedup bands per size, plus ramp monotonicity."""
        out: list[ShapeCheck] = []
        by_size = {r.size: r for r in self.rows}
        for ref in TABLE2:
            row = by_size[ref.size]
            # small sizes sit on the steep host-dispatch ramp; wider band
            rate_band = 0.30 if ref.size <= 256 else 0.10
            out.append(ratio_check(
                f"table2: F_MME @ {ref.size}", row.f_mme_tflops,
                ref.f_mme_tflops, rate_band,
            ))
            out.append(ratio_check(
                f"table2: F_TPC @ {ref.size}", row.f_tpc_tflops,
                ref.f_tpc_tflops, 0.10,
            ))
            out.append(ratio_check(
                f"table2: speedup @ {ref.size}", row.speedup,
                ref.speedup, 0.35 if ref.size <= 256 else 0.15,
            ))
        mme_rates = [r.f_mme_tflops for r in self.rows]
        out.append(ShapeCheck(
            "table2: MME rate ramps monotonically",
            mme_rates == sorted(mme_rates),
            "monotone" if mme_rates == sorted(mme_rates) else "non-monotone",
            "monotone",
        ))
        return out

    def render(self) -> str:
        """Paper-style table with measured and reference columns."""
        ref_by_size = {r.size: r for r in TABLE2}
        rows = []
        for r in self.rows:
            ref = ref_by_size[r.size]
            rows.append((
                r.size, r.t_mme_ms, r.f_mme_tflops, r.t_tpc_ms,
                r.f_tpc_tflops, r.speedup,
                f"{ref.f_mme_tflops}/{ref.f_tpc_tflops}/{ref.speedup}",
            ))
        return render_table(
            ["Size", "T_MME(ms)", "F_MME", "T_TPC(ms)", "F_TPC", "Speedup",
             "paper F_MME/F_TPC/speedup"],
            rows,
            title="Table 2: MME vs TPC batched matmul (batch=64, reproduced)",
        )


def run_mme_vs_tpc(
    *,
    sizes: tuple[int, ...] = SIZES,
    batch: int = BATCH,
) -> MmeVsTpcResult:
    """Measure all sizes; returns the populated result."""
    config = GaudiConfig()
    mme = MMEModel(config.mme, config.hbm)
    sim = TPCSimulator(config.tpc, config.default_dtype)
    kernel = REGISTRY.create("bmm")
    rows = []
    for size in sizes:
        dims = MatmulDims(batch, size, size, size)
        t_mme_us = mme.matmul_time_us(dims) + EAGER_DISPATCH_OVERHEAD_US
        launch = sim.launch(
            kernel, shapes={"a": (batch, size, size), "b": (batch, size, size)}
        )
        rows.append(MmeVsTpcRow(
            size=size,
            t_mme_ms=us_to_ms(t_mme_us),
            f_mme_tflops=tflops(dims.flops, t_mme_us),
            t_tpc_ms=us_to_ms(launch.time_us),
            f_tpc_tflops=launch.achieved_tflops,
        ))
    return MmeVsTpcResult(rows, config)
