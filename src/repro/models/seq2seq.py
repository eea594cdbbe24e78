"""Encoder-decoder Transformer — the paper's Figure 2 in full.

§2.3 describes the original architecture: encoder blocks, decoder
blocks with *cross*-attention over the encoder output, embeddings and
layer norms. BERT and GPT (§3.4) are its two halves; this module
provides the whole machine for translation-style workloads, reusing
the attention variants so a seq2seq model can also be linearized or
pipelined.
"""

from __future__ import annotations

import numpy as np

from .. import ht
from ..ht import functional as F
from ..ht.tensor import Tensor
from ..util.errors import ShapeError
from ..util.rng import derive, module_rng
from .attention import _AttentionBase, _merge_heads, _split_heads, build_attention
from .config import AttentionConfig, LayerConfig, LLMConfig
from .feedforward import FeedForward


class CrossAttention(_AttentionBase):
    """Decoder queries attend over encoder memory (softmax form)."""

    def forward(self, x: Tensor, memory: Tensor) -> Tensor:  # type: ignore[override]
        cfg = self.config
        if memory.shape[-1] != cfg.d_model:
            raise ShapeError(
                f"cross-attention memory width {memory.shape} != "
                f"{cfg.d_model}"
            )
        q = _split_heads(self.wq(x), cfg.num_heads, cfg.head_dim)
        k = _split_heads(self.wk(memory), cfg.num_heads, cfg.head_dim)
        v = _split_heads(self.wv(memory), cfg.num_heads, cfg.head_dim)
        scores = F.mul_scalar(
            F.matmul(q, k, transpose_b=True), cfg.head_dim ** -0.5
        )
        probs = F.softmax(scores, axis=-1)
        return self.wo(_merge_heads(F.matmul(probs, v)))


class DecoderLayer(ht.Module):
    """Self-attention (causal) + cross-attention + FFN, pre-norm."""

    def __init__(
        self,
        config: LayerConfig,
        *,
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "declayer",
    ):
        super().__init__()
        self._name = name
        self.config = config
        rng = module_rng(rng, materialize)
        d = config.d_model
        self.self_attn = build_attention(
            config.attention, rng=derive(rng, name, "self"),
            materialize=materialize, name="self_attn",
        )
        cross_cfg = AttentionConfig(
            num_heads=config.attention.num_heads,
            head_dim=config.attention.head_dim,
            kind="softmax", causal=False,
        )
        self.cross_attn = CrossAttention(
            cross_cfg, rng=derive(rng, name, "cross"),
            materialize=materialize, name="cross_attn",
        )
        self.ln1 = ht.LayerNorm(d, materialize=materialize, name="ln1")
        self.ln2 = ht.LayerNorm(d, materialize=materialize, name="ln2")
        self.ln3 = ht.LayerNorm(d, materialize=materialize, name="ln3")
        self.ffn = FeedForward(
            d, ffn_mult=config.ffn_mult, activation=config.activation,
            rng=derive(rng, name, "ffn"), materialize=materialize,
        )

    def forward(self, x: Tensor, memory: Tensor) -> Tensor:
        x = F.add(x, self.self_attn(self.ln1(x)))
        x = F.add(x, self.cross_attn(self.ln2(x), memory))
        return F.add(x, self.ffn(self.ln3(x)))


class EncoderDecoderTransformer(ht.Module):
    """The full Figure 2 machine for sequence-to-sequence tasks."""

    def __init__(
        self,
        config: LLMConfig,
        *,
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "seq2seq",
    ):
        super().__init__()
        from .transformer import TransformerStack

        self._name = name
        self.config = config
        rng = module_rng(rng, materialize)
        d = config.d_model
        enc_layer = LayerConfig(
            attention=AttentionConfig(
                num_heads=config.layer.attention.num_heads,
                head_dim=config.layer.attention.head_dim,
                kind=config.layer.attention.kind, causal=False,
            ),
            ffn_mult=config.layer.ffn_mult,
            activation=config.layer.activation,
        )
        dec_layer = LayerConfig(
            attention=AttentionConfig(
                num_heads=config.layer.attention.num_heads,
                head_dim=config.layer.attention.head_dim,
                kind="softmax", causal=True,
            ),
            ffn_mult=config.layer.ffn_mult,
            activation=config.layer.activation,
        )
        self.src_embed = ht.Embedding(
            config.vocab_size, d, rng=derive(rng, name, "src"),
            materialize=materialize, name="src_embed",
        )
        self.tgt_embed = ht.Embedding(
            config.vocab_size, d, rng=derive(rng, name, "tgt"),
            materialize=materialize, name="tgt_embed",
        )
        self.pos_embed = ht.Embedding(
            config.max_seq_len, d, rng=derive(rng, name, "pos"),
            materialize=materialize, name="pos_embed",
        )
        self.encoder = TransformerStack(
            enc_layer, config.num_layers, rng=derive(rng, name, "enc"),
            materialize=materialize, name="encoder",
        )
        self.decoder_layers = [
            DecoderLayer(dec_layer, rng=derive(rng, name, f"dec{i}"),
                         materialize=materialize, name=f"dec{i}")
            for i in range(config.num_layers)
        ]
        self.ln_final = ht.LayerNorm(d, materialize=materialize, name="ln_f")
        self.out_proj = ht.Linear(
            d, config.vocab_size, bias=False,
            rng=derive(rng, name, "out"), materialize=materialize,
            name="out_proj",
        )

    def _positions(self, b: int, n: int) -> Tensor:
        return ht.const(
            (b, n), lambda: np.broadcast_to(np.arange(n), (b, n)),
            name="positions",
        )

    def encode(self, src_ids: Tensor) -> Tensor:
        """Source ids (B, S) -> encoder memory (B, S, D)."""
        b, n = src_ids.shape
        h = F.add(self.src_embed(src_ids),
                  self.pos_embed(self._positions(b, n)))
        return self.encoder(h)

    def forward(self, src_ids: Tensor, tgt_ids: Tensor) -> Tensor:
        """(B, S) source + (B, T) target -> logits (B, T, V)."""
        if len(src_ids.shape) != 2 or len(tgt_ids.shape) != 2:
            raise ShapeError("src_ids and tgt_ids must be (B, N)")
        memory = self.encode(src_ids)
        b, t = tgt_ids.shape
        h = F.add(self.tgt_embed(tgt_ids),
                  self.pos_embed(self._positions(b, t)))
        for layer in self.decoder_layers:
            h = layer(h, memory)
        return self.out_proj(self.ln_final(h))

    def loss(self, src_ids: Tensor, tgt_ids: Tensor,
             target_onehot: Tensor) -> Tensor:
        """Mean cross-entropy of next-token targets (B, T, V)."""
        logits = self(src_ids, tgt_ids)
        with ht.scope("loss"):
            return F.cross_entropy_with_logits(
                F.reshape(logits, (-1, self.config.vocab_size)),
                F.reshape(target_onehot, (-1, self.config.vocab_size)),
            )


def tiny_seq2seq_config(vocab_size: int = 37) -> LLMConfig:
    """Concrete-mode-sized encoder-decoder config."""
    return LLMConfig(
        vocab_size=vocab_size, max_seq_len=32, num_layers=2,
        layer=LayerConfig(
            attention=AttentionConfig(num_heads=2, head_dim=8, causal=True),
            ffn_mult=2, activation="gelu",
        ),
    )
