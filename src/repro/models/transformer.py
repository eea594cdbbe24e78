"""Transformer layers and stacks.

A :class:`TransformerLayer` is the §3.3 unit of study: attention (any
variant) plus an optional FFN, with residual connections and layer
norms. :class:`TransformerStack` chains layers for the end-to-end
models.
"""

from __future__ import annotations

import numpy as np

from .. import ht
from ..ht import functional as F
from ..ht.tensor import Tensor
from ..util.rng import derive, module_rng
from .attention import build_attention
from .config import LayerConfig
from .feedforward import FeedForward


class TransformerLayer(ht.Module):
    """Pre-/post-norm Transformer layer with pluggable attention."""

    def __init__(
        self,
        config: LayerConfig,
        *,
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "layer",
    ):
        super().__init__()
        self._name = name
        self.config = config
        rng = module_rng(rng, materialize)
        d = config.d_model
        self.attn = build_attention(
            config.attention, rng=derive(rng, name, "attn"),
            materialize=materialize, name="attn",
        )
        self.ln1 = ht.LayerNorm(d, materialize=materialize, name="ln1")
        self.ffn = (
            FeedForward(
                d, ffn_mult=config.ffn_mult, activation=config.activation,
                rng=derive(rng, name, "ffn"), materialize=materialize,
            )
            if config.include_ffn
            else None
        )
        self.ln2 = (
            ht.LayerNorm(d, materialize=materialize, name="ln2")
            if config.include_ffn
            else None
        )
        p = config.dropout_p
        self.drop_attn = ht.Dropout(p, training=p > 0, name="drop_attn")
        self.drop_ffn = ht.Dropout(p, training=p > 0, name="drop_ffn")

    def forward(self, x: Tensor) -> Tensor:
        if self.config.pre_norm:
            x = F.add(x, self.drop_attn(self.attn(self.ln1(x))))
            if self.ffn is not None:
                x = F.add(x, self.drop_ffn(self.ffn(self.ln2(x))))
        else:
            x = self.ln1(F.add(x, self.drop_attn(self.attn(x))))
            if self.ffn is not None:
                x = self.ln2(F.add(x, self.drop_ffn(self.ffn(x))))
        return x


class TransformerStack(ht.Module):
    """N identical layers."""

    def __init__(
        self,
        config: LayerConfig,
        num_layers: int,
        *,
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "stack",
    ):
        super().__init__()
        self._name = name
        rng = module_rng(rng, materialize)
        #: when set, each layer records as a checkpoint segment: its
        #: internal activations become droppable and the memory
        #: planner may recompute them before backward instead of
        #: keeping them resident (see :func:`repro.ht.checkpoint`)
        self.checkpoint_activations = False
        self.layers = [
            TransformerLayer(
                config, rng=derive(rng, name, f"layer{i}"),
                materialize=materialize, name=f"layer{i}",
            )
            for i in range(num_layers)
        ]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            if self.checkpoint_activations:
                x = ht.checkpoint(layer, x, label=layer._name)
            else:
                x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)
