"""GPT2LMHeadModel analog — the §3.4 end-to-end decoder model.

"GPT2LMHeadModel is the GPT2 Model Transformer with a language modeling
head on top" (§3.4); during training only the decoder is used, with
causal self-attention and a tied-or-separate vocabulary projection.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import ht
from ..ht import functional as F
from ..ht.tensor import Tensor
from ..util.errors import ConfigError, ShapeError
from ..util.rng import derive, module_rng
from .config import LLMConfig
from .transformer import TransformerStack


class GPT2LMHeadModel(ht.Module):
    """Causal decoder with a language-modeling head."""

    def __init__(
        self,
        config: LLMConfig,
        *,
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "gpt2",
    ):
        super().__init__()
        if not config.layer.attention.causal:
            raise ConfigError(
                "GPT2LMHeadModel requires causal attention "
                "(set AttentionConfig.causal=True)"
            )
        self._name = name
        self.config = config
        rng = module_rng(rng, materialize)
        d = config.d_model
        self.tok_embed = ht.Embedding(
            config.vocab_size, d, rng=derive(rng, name, "tok"),
            materialize=materialize, name="wte",
        )
        self.pos_embed = ht.Embedding(
            config.max_seq_len, d, rng=derive(rng, name, "pos"),
            materialize=materialize, name="wpe",
        )
        self.decoder = TransformerStack(
            config.layer, config.num_layers, rng=derive(rng, name, "dec"),
            materialize=materialize, name="decoder",
        )
        self.ln_final = ht.LayerNorm(d, materialize=materialize, name="ln_f")
        self.lm_head = ht.Linear(
            d, config.vocab_size, bias=False, rng=derive(rng, name, "head"),
            materialize=materialize, name="lm_head",
        )

    def forward(self, input_ids: Tensor) -> Tensor:
        """input_ids (B, N) -> logits (B, N, V)."""
        if len(input_ids.shape) != 2:
            raise ShapeError(f"input_ids must be (B, N), got {input_ids.shape}")
        b, n = input_ids.shape
        if n > self.config.max_seq_len:
            raise ShapeError(
                f"sequence length {n} exceeds max {self.config.max_seq_len}"
            )
        positions = ht.const(
            (b, n), lambda: np.broadcast_to(np.arange(n), (b, n)),
            name="positions",
        )
        h = F.add(self.tok_embed(input_ids), self.pos_embed(positions))
        h = self.decoder(h)
        return self.lm_head(self.ln_final(h))

    def loss(self, input_ids: Tensor, target_onehot: Tensor) -> Tensor:
        """Mean next-token cross-entropy; targets pre-shifted by the
        batcher (``target_onehot`` is (B, N, V))."""
        logits = self(input_ids)
        with ht.scope("loss"):
            return F.cross_entropy_with_logits(
                F.reshape(logits, (-1, self.config.vocab_size)),
                F.reshape(target_onehot, (-1, self.config.vocab_size)),
            )


def tiny_gpt_config(vocab_size: int = 101) -> LLMConfig:
    """A concrete-mode-sized causal config for tests and examples."""
    from .config import AttentionConfig, LayerConfig

    return LLMConfig(
        vocab_size=vocab_size, max_seq_len=64, num_layers=2,
        layer=LayerConfig(
            attention=AttentionConfig(num_heads=2, head_dim=8, causal=True),
            ffn_mult=2, activation="gelu",
        ),
    )


def tiny_bert_config(vocab_size: int = 101) -> LLMConfig:
    """A concrete-mode-sized bidirectional config."""
    from .config import AttentionConfig, LayerConfig

    return LLMConfig(
        vocab_size=vocab_size, max_seq_len=64, num_layers=2,
        layer=LayerConfig(
            attention=AttentionConfig(num_heads=2, head_dim=8, causal=False),
            ffn_mult=2, activation="gelu",
        ),
    )
