"""Figures 8/9: end-to-end GPT-2 and BERT training-step profiling.

§3.4 profiles ``GPT2LMHeadModel`` and ``BertForMaskedLM`` on BookCorpus
with sequence length 2048, batch size 8, 2 layers, 8 heads, head dim
64 — batch 8 "due to limited GAUDI memory". The profiled unit here is a
full training iteration: forward, loss, backward, optimizer step.

Reproduced observations: many blank areas on the MME; those blanks
coincide with TPC execution (MME waiting on non-matmul work); the
MME/TPC workload is unbalanced. We additionally reproduce the memory
constraint itself: compiling the same graph at batch 128 exceeds the
32 GB HBM plan and is rejected.

Known deviation (recorded in EXPERIMENTS.md): with only 2 layers, the
~50k-vocabulary LM head matmuls keep the simulated MME busier overall
than the paper's qualitative "TPC obviously busy" description; the
within-layer regions show the Fig 4 imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import ht
from ..hw.config import GaudiConfig
from ..hw.costmodel import EngineKind
from ..models import (
    BertForMaskedLM,
    GPT2LMHeadModel,
    paper_bert_config,
    paper_gpt_config,
)
from ..synapse import (
    CompilerOptions,
    ProfileResult,
    SynapseProfiler,
    ascii_timeline,
)
from ..util.errors import DataError, DeviceMemoryError
from .insights import describe_insights, gap_overlap_fraction, imbalance_index
from .reference import E2E_SHAPES, ShapeCheck, threshold_check

MODEL_BUILDERS = {
    "gpt": (GPT2LMHeadModel, paper_gpt_config),
    "bert": (BertForMaskedLM, paper_bert_config),
}


def record_training_step(
    model_name: str,
    *,
    batch: int | None = None,
    seq_len: int | None = None,
    optimizer: str = "sgd",
    checkpoint: bool = False,
) -> "ht.Recorder":
    """Record one symbolic training iteration of the §3.4 model.

    With ``checkpoint``, each transformer layer records as a
    checkpoint segment (:func:`repro.ht.checkpoint`), giving the
    memory planner license to recompute its internal activations
    instead of keeping them resident through backward.
    """
    if model_name not in MODEL_BUILDERS:
        raise DataError(
            f"unknown model {model_name!r}; use 'gpt' or 'bert'"
        )
    model_cls, config_fn = MODEL_BUILDERS[model_name]
    cfg = config_fn()
    batch = batch or E2E_SHAPES["batch"]
    seq_len = seq_len or E2E_SHAPES["seq_len"]
    model = model_cls(cfg, materialize=False)
    if checkpoint:
        stack = getattr(model, "decoder", None) or getattr(
            model, "encoder", None
        )
        stack.checkpoint_activations = True
    with ht.record(f"{model_name}-train-step", mode="symbolic") as rec:
        input_ids = ht.input_tensor((batch, seq_len), name="input_ids")
        targets = ht.input_tensor(
            (batch, seq_len, cfg.vocab_size), name="targets",
        )
        loss = model.loss(input_ids, targets)
        loss.backward()
        opt = (ht.SGD if optimizer == "sgd" else ht.AdamLike)(
            model.parameters(), lr=0.01
        )
        opt.step()
    return rec


def record_forward_step(
    model_name: str,
    *,
    batch: int | None = None,
    seq_len: int | None = None,
) -> "ht.Recorder":
    """Record one symbolic *forward-only* pass (inference prefill)."""
    if model_name not in MODEL_BUILDERS:
        raise DataError(
            f"unknown model {model_name!r}; use 'gpt' or 'bert'"
        )
    model_cls, config_fn = MODEL_BUILDERS[model_name]
    cfg = config_fn()
    batch = batch or E2E_SHAPES["batch"]
    seq_len = seq_len or E2E_SHAPES["seq_len"]
    model = model_cls(cfg, materialize=False)
    with ht.record(f"{model_name}-forward", mode="symbolic") as rec:
        input_ids = ht.input_tensor((batch, seq_len), name="input_ids")
        model(input_ids)
    return rec


@dataclass
class E2EProfileResult:
    """One model's profiled training step."""

    model_name: str
    profile: ProfileResult
    oom_at_large_batch: bool
    large_batch: int
    batch: int = E2E_SHAPES["batch"]
    seq_len: int = E2E_SHAPES["seq_len"]
    config: GaudiConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = GaudiConfig()

    @property
    def timeline(self):
        """The trace."""
        return self.profile.timeline

    @property
    def tokens_per_second(self) -> float:
        """Training throughput at the profiled shapes."""
        return self.batch * self.seq_len / (self.profile.total_time_us / 1e6)

    @property
    def mfu(self) -> float:
        """Model FLOPs utilization: graph FLOPs / (time x MME peak).

        The standard LLM-training efficiency number; on this workload
        it is bounded by everything the paper complains about — the
        TPC detours, the DMA hops, the serial engine queues.
        """
        total_flops = self.profile.schedule.total_flops()
        peak = self.config.mme.peak_tflops * 1e12
        seconds = self.profile.total_time_us / 1e6
        if seconds <= 0:
            return 0.0
        return total_flops / (seconds * peak)

    def checks(self) -> list[ShapeCheck]:
        """The §3.4 qualitative claims for this model."""
        tl = self.timeline
        n_gaps = len(tl.gaps(EngineKind.MME, min_dur_us=20.0))
        return [
            ShapeCheck(
                f"fig8/9 [{self.model_name}]: many blank areas on the MME",
                n_gaps >= 10,
                f"{n_gaps} gaps > 20us",
                ">= 10 gaps",
            ),
            threshold_check(
                f"fig8/9 [{self.model_name}]: MME idle fraction",
                self.profile.mme_idle_fraction, 0.10,
            ),
            ShapeCheck(
                f"fig8/9 [{self.model_name}]: MME blanks coincide with TPC work",
                gap_overlap_fraction(tl, EngineKind.MME, EngineKind.TPC) > 0.6,
                f"{gap_overlap_fraction(tl, EngineKind.MME, EngineKind.TPC):.1%}",
                "> 60%",
            ),
            threshold_check(
                f"fig8/9 [{self.model_name}]: MME/TPC workload imbalance",
                imbalance_index(tl), 0.15,
            ),
            ShapeCheck(
                f"fig8/9 [{self.model_name}]: softmax runs on the TPC",
                tl.src_share("softmax", EngineKind.TPC) > 0.0,
                f"{tl.src_share('softmax', EngineKind.TPC):.1%} of TPC busy",
                "> 0",
            ),
            ShapeCheck(
                f"fig8/9 [{self.model_name}]: batch {self.large_batch} "
                "exceeds 32 GB HBM (paper ran batch 8 'due to limited "
                "GAUDI memory')",
                self.oom_at_large_batch,
                "OOM raised" if self.oom_at_large_batch else "fit",
                "OOM",
            ),
            ShapeCheck(
                f"fig8/9 [{self.model_name}]: batch 8 fits in 32 GB HBM",
                self.profile.peak_hbm_bytes
                <= GaudiConfig().hbm.capacity_bytes,
                f"{self.profile.peak_hbm_bytes / (1 << 30):.1f} GiB",
                "<= 32 GiB",
            ),
        ]

    def render(self, *, width: int = 100) -> str:
        """The 'figure': trace lanes + narrative."""
        fig = "Figure 8 (GPT)" if self.model_name == "gpt" else "Figure 9 (BERT)"
        phases = ", ".join(
            f"{scope} {share:.0%}"
            for scope, _, share in self.profile.scope_breakdown(depth=1)[:5]
        )
        return "\n".join([
            f"== {fig}: training step {self.profile.total_time_ms:.1f} ms, "
            f"peak HBM {self.profile.peak_hbm_bytes / (1 << 30):.1f} GiB ==",
            f"throughput {self.tokens_per_second:,.0f} tokens/s, "
            f"MFU {self.mfu:.1%}",
            f"busy time by phase: {phases}",
            ascii_timeline(self.timeline, width=width),
            describe_insights(self.timeline),
        ])


def run_e2e(
    model_name: str,
    *,
    config: GaudiConfig | None = None,
    options: CompilerOptions | None = None,
    large_batch: int = 128,
) -> E2EProfileResult:
    """Profile one model's training step and the OOM boundary."""
    rec = record_training_step(model_name)
    profile = SynapseProfiler(config, options).profile(rec.graph)

    oom = False
    try:
        big = record_training_step(model_name, batch=large_batch)
        SynapseProfiler(config, options).compile(big.graph)
    except DeviceMemoryError:
        oom = True
    return E2EProfileResult(model_name, profile, oom, large_batch,
                            config=config)


def max_batch_that_fits(
    model_name: str,
    *,
    config: GaudiConfig | None = None,
    options: CompilerOptions | None = None,
    candidates: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> int:
    """Largest candidate batch whose memory plan fits HBM.

    The paper's implied sweep: why 8 and not 128.
    """
    best = 0
    for batch in candidates:
        try:
            rec = record_training_step(model_name, batch=batch)
            SynapseProfiler(config, options).compile(rec.graph)
            best = batch
        except DeviceMemoryError:
            break
    return best
