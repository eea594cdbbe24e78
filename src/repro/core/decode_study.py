"""Extension A9: KV-cached decode — where the MME starves.

Training keeps the MME fed with big matmuls; token-by-token decoding
feeds it (1 x D) matvecs that cover a single row of the 128-row MAC
array. The study profiles one decode step across context lengths and
quantifies the inversion of the paper's §3 picture:

* the MME's achieved rate collapses to ~1% of its training-time rate;
* the step is memory-bound on weight streaming, not compute-bound;
* attention-cache reads grow linearly with context, eventually
  rivaling the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.costmodel import EngineKind
from ..models import paper_gpt_config
from ..models.kvcache import record_decode_step
from ..synapse import CompilerOptions, ProfileResult, SynapseProfiler
from ..util.errors import DataError
from ..util.tabulate import render_table
from ..util.units import tflops
from .reference import ShapeCheck, threshold_check

DEFAULT_CONTEXTS = (128, 512, 1024, 1536)


@dataclass
class DecodeStudyResult:
    """Per-context decode-step profiles."""

    contexts: list[int]
    batch: int
    profiles: list[ProfileResult] = field(default_factory=list)
    #: the Fig 4 training-time MME rate, for the collapse comparison
    training_mme_tflops: float = 0.0

    def step_ms(self) -> list[float]:
        """Decode-step latencies."""
        return [p.total_time_ms for p in self.profiles]

    def mme_achieved_tflops(self, index: int) -> float:
        """Achieved MME rate during one decode step.

        Raises :class:`~repro.util.errors.DataError` when the step
        never touched the MME — silently reporting 0.0 TFLOPS would
        make the "rate collapse" rows quietly wrong instead of
        flagging a degenerate profile.
        """
        profile = self.profiles[index]
        mme_flops = sum(
            op.flops for op in profile.schedule.ops
            if op.engine is EngineKind.MME
        )
        busy = profile.timeline.busy_time_us(EngineKind.MME)
        if busy <= 0.0:
            raise DataError(
                f"decode step at context {self.contexts[index]} kept the "
                "MME idle (0 us busy): no achieved rate is defined for "
                "this profile"
            )
        return tflops(mme_flops, busy)

    def tokens_per_second(self, index: int) -> float:
        """Decode throughput at one context length.

        Raises :class:`~repro.util.errors.DataError` on a zero-length
        profile instead of dividing by zero.
        """
        total_us = self.profiles[index].total_time_us
        if total_us <= 0.0:
            raise DataError(
                f"decode step at context {self.contexts[index]} measured "
                f"{total_us} us: throughput is undefined for a "
                "zero-duration profile"
            )
        return self.batch / (total_us / 1e6)

    def checks(self) -> list[ShapeCheck]:
        """The extension's claims."""
        rate = self.mme_achieved_tflops(0)
        collapse = rate / max(self.training_mme_tflops, 1e-9)
        latencies = self.step_ms()
        growth = latencies[-1] / latencies[0]
        return [
            ShapeCheck(
                "ext-decode: MME rate collapses vs training",
                collapse < 0.10,
                f"{rate:.2f} TFLOPS ({collapse:.1%} of training's "
                f"{self.training_mme_tflops:.1f})",
                "< 10%",
            ),
            ShapeCheck(
                "ext-decode: latency grows sub-linearly with context "
                "(weights dominate the streaming)",
                growth < (self.contexts[-1] / self.contexts[0]) * 0.5,
                f"{growth:.2f}x for {self.contexts[-1] // self.contexts[0]}x "
                "context",
                "well below proportional",
            ),
            threshold_check(
                "ext-decode: step latency is sub-10ms (interactive)",
                max(latencies), 10.0, upper=True,
            ),
        ]

    def render(self) -> str:
        """Per-context table."""
        rows = []
        for i, t in enumerate(self.contexts):
            rows.append((
                t,
                self.step_ms()[i],
                f"{self.tokens_per_second(i):,.0f}",
                f"{self.mme_achieved_tflops(i):.2f}",
                f"{self.profiles[i].utilization(EngineKind.MME):.0%}",
                f"{self.profiles[i].utilization(EngineKind.TPC):.0%}",
            ))
        return render_table(
            ["context", "step (ms)", "tokens/s", "MME TFLOPS", "MME util",
             "TPC util"],
            rows,
            title=f"A9: KV-cached decode (GPT config, batch {self.batch}; "
                  f"training MME rate ~{self.training_mme_tflops:.1f} TFLOPS)",
        )


def run_decode_study(
    contexts: tuple[int, ...] = DEFAULT_CONTEXTS,
    *,
    batch: int = 1,
    options: CompilerOptions | None = None,
) -> DecodeStudyResult:
    """Profile decode steps across context lengths."""
    model_cfg = paper_gpt_config()
    result = DecodeStudyResult(list(contexts), batch)
    for context in contexts:
        rec = record_decode_step(model_cfg, batch=batch,
                                 context_len=context)
        result.profiles.append(
            SynapseProfiler(options=options).profile(rec.graph)
        )

    # training-time comparison point: the Fig 8 step's MME rate
    from .e2e_llm import record_training_step

    train = SynapseProfiler(options=options).profile(
        record_training_step("gpt").graph
    )
    mme_flops = sum(
        op.flops for op in train.schedule.ops
        if op.engine is EngineKind.MME
    )
    result.training_mme_tflops = tflops(
        mme_flops, train.timeline.busy_time_us(EngineKind.MME)
    )
    return result
