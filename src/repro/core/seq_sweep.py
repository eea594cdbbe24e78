"""Long-sequence study: how the bottleneck scales with sequence length.

The paper's third challenge is "Unexplored Transformer performance in
long sequences": §3.3 argues the TPC-bound softmax is O(N^2) and that
"long sequences further exacerbate this problem especially when the
sequence length exceeds 1024". This study sweeps N for the softmax and
linear layers and checks the asymptotics directly:

* softmax layer time grows ~quadratically (doubling N ~quadruples it),
  linear attention grows ~linearly;
* softmax's share of TPC busy time *rises* with N;
* the linear-attention advantage widens monotonically and exceeds the
  paper's 6x beyond the paper's 2048 point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..synapse import CompilerOptions, ProfileResult
from ..util.tabulate import render_table
from .attention_study import profile_layer
from .reference import ShapeCheck, threshold_check

DEFAULT_SEQ_LENS = (256, 512, 1024, 2048, 4096)
#: batch small enough that softmax@4096 fits the 32 GiB plan
SWEEP_BATCH = 32


@dataclass
class SeqSweepResult:
    """Per-length profiles for both attention variants."""

    seq_lens: list[int]
    softmax: list[ProfileResult] = field(default_factory=list)
    linear: list[ProfileResult] = field(default_factory=list)

    def softmax_ms(self) -> list[float]:
        """Softmax-layer makespans."""
        return [p.total_time_ms for p in self.softmax]

    def linear_ms(self) -> list[float]:
        """Linear-layer makespans."""
        return [p.total_time_ms for p in self.linear]

    def speedups(self) -> list[float]:
        """Linear-attention advantage per length."""
        return [s / l for s, l in zip(self.softmax_ms(), self.linear_ms())]

    def doubling_ratios(self, times: list[float]) -> list[float]:
        """t(2N)/t(N) for consecutive sweep points."""
        return [b / a for a, b in zip(times, times[1:])]

    def checks(self) -> list[ShapeCheck]:
        """The asymptotic claims of §3.3."""
        soft_ratios = self.doubling_ratios(self.softmax_ms())
        lin_ratios = self.doubling_ratios(self.linear_ms())
        speedups = self.speedups()
        shares = [p.softmax_tpc_share for p in self.softmax]
        long_idx = [i for i, n in enumerate(self.seq_lens) if n >= 1024]
        return [
            ShapeCheck(
                "seq-sweep: softmax layer scales ~quadratically at long N",
                soft_ratios[-1] > 3.0,
                f"t(2N)/t(N) = {soft_ratios[-1]:.2f} at N={self.seq_lens[-1]}",
                "> 3 (quadratic ~ 4)",
            ),
            ShapeCheck(
                "seq-sweep: linear layer scales ~linearly",
                lin_ratios[-1] < 2.6,
                f"t(2N)/t(N) = {lin_ratios[-1]:.2f}",
                "< 2.6 (linear ~ 2)",
            ),
            ShapeCheck(
                "seq-sweep: linear speedup widens with N",
                speedups == sorted(speedups),
                " -> ".join(f"{s:.1f}x" for s in speedups),
                "monotone growth",
            ),
            ShapeCheck(
                "seq-sweep: softmax share of TPC rises with N",
                all(a <= b + 1e-9 for a, b in zip(shares, shares[1:])),
                " -> ".join(f"{s:.0%}" for s in shares),
                "non-decreasing",
            ),
            threshold_check(
                "seq-sweep: problem 'exacerbated beyond 1024' — speedup "
                "at the longest N",
                # past the paper's 2048 point the advantage must exceed
                # its ~6x; shorter sweeps get a proportional bar
                speedups[-1], 6.0 if self.seq_lens[-1] >= 4096 else 4.0,
            ),
            ShapeCheck(
                "seq-sweep: MME idle grows with N for softmax attention",
                self.softmax[-1].mme_idle_fraction
                > self.softmax[0].mme_idle_fraction,
                f"{self.softmax[0].mme_idle_fraction:.0%} -> "
                f"{self.softmax[-1].mme_idle_fraction:.0%}",
                "growing",
            ),
        ]

    def render(self) -> str:
        """Sweep table."""
        rows = []
        for i, n in enumerate(self.seq_lens):
            rows.append((
                n,
                self.softmax_ms()[i],
                self.linear_ms()[i],
                f"{self.speedups()[i]:.1f}x",
                f"{self.softmax[i].softmax_tpc_share:.0%}",
                f"{self.softmax[i].mme_idle_fraction:.0%}",
            ))
        return render_table(
            ["seq len", "softmax (ms)", "linear (ms)", "linear speedup",
             "softmax TPC share", "MME idle (softmax)"],
            rows,
            title=f"Long-sequence sweep (batch {SWEEP_BATCH}, 6 heads x 64)",
        )


def run_seq_sweep(
    seq_lens: tuple[int, ...] = DEFAULT_SEQ_LENS,
    *,
    options: CompilerOptions | None = None,
    batch: int = SWEEP_BATCH,
) -> SeqSweepResult:
    """Profile both variants at every sweep length."""
    result = SeqSweepResult(list(seq_lens))
    for n in seq_lens:
        result.softmax.append(
            profile_layer("softmax", options=options, batch=batch, seq_len=n)
        )
        result.linear.append(
            profile_layer("linear", options=options, batch=batch, seq_len=n)
        )
    return result
