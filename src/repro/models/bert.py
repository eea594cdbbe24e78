"""BertForMaskedLM analog — the §3.4 end-to-end encoder model.

Structure mirrors the HuggingFace module the paper profiles: token +
position embeddings, a bidirectional encoder stack, and an MLM head
(dense + GELU + LayerNorm + vocabulary decoder).
"""

from __future__ import annotations

import numpy as np

from .. import ht
from ..ht import functional as F
from ..ht.tensor import Tensor
from ..util.errors import ShapeError
from ..util.rng import derive, module_rng
from .config import LLMConfig
from .transformer import TransformerStack


class MLMHead(ht.Module):
    """dense -> GELU -> LayerNorm -> vocab decoder (BERT's cls head)."""

    def __init__(self, d_model: int, vocab_size: int, *,
                 rng: np.random.Generator | None = None,
                 materialize: bool = True, name: str = "mlm_head"):
        super().__init__()
        self._name = name
        rng = module_rng(rng, materialize)
        self.dense = ht.Linear(d_model, d_model, rng=derive(rng, name, "dense"),
                               materialize=materialize, name="dense")
        self.ln = ht.LayerNorm(d_model, materialize=materialize, name="ln")
        self.decoder = ht.Linear(
            d_model, vocab_size, rng=derive(rng, name, "decoder"),
            materialize=materialize, name="decoder",
        )

    def forward(self, hidden: Tensor) -> Tensor:
        h = F.gelu(self.dense(hidden))
        return self.decoder(self.ln(h))


class BertForMaskedLM(ht.Module):
    """Bidirectional encoder with a masked-language-modeling head."""

    def __init__(
        self,
        config: LLMConfig,
        *,
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "bert",
    ):
        super().__init__()
        self._name = name
        self.config = config
        rng = module_rng(rng, materialize)
        d = config.d_model
        self.tok_embed = ht.Embedding(
            config.vocab_size, d, rng=derive(rng, name, "tok"),
            materialize=materialize, name="tok_embed",
        )
        self.pos_embed = ht.Embedding(
            config.max_seq_len, d, rng=derive(rng, name, "pos"),
            materialize=materialize, name="pos_embed",
        )
        self.encoder = TransformerStack(
            config.layer, config.num_layers, rng=derive(rng, name, "enc"),
            materialize=materialize, name="encoder",
        )
        self.ln_final = ht.LayerNorm(d, materialize=materialize, name="ln_f")
        self.head = MLMHead(
            d, config.vocab_size, rng=derive(rng, name, "head"),
            materialize=materialize,
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
        h = self.encoder(h)
        return self.head(self.ln_final(h))

    def loss(self, input_ids: Tensor, target_onehot: Tensor) -> Tensor:
        """Mean MLM cross-entropy over all positions.

        ``target_onehot`` is (B, N, V); the synthetic-corpus batcher
        produces it (masked positions carry the original token).
        """
        logits = self(input_ids)
        with ht.scope("loss"):
            return F.cross_entropy_with_logits(
                F.reshape(logits, (-1, self.config.vocab_size)),
                F.reshape(target_onehot, (-1, self.config.vocab_size)),
            )
