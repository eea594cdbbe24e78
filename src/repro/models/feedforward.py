"""Position-wise feed-forward network with configurable activation.

The FFN is where BERT/GPT spend their other matmuls; its activation is
a pure elementwise TPC op, "extremely suitable for SIMD architecture
like TPC" (§3.3) — except GLU, whose gate doubles the first projection
width and whose poor SynapseAI support costs a recompilation.
"""

from __future__ import annotations

import numpy as np

from .. import ht
from ..ht import functional as F
from ..ht.tensor import Tensor
from ..util.errors import ConfigError
from ..util.rng import derive, module_rng


class FeedForward(ht.Module):
    """x -> act(x W1) W2 with a ``ffn_mult`` expansion."""

    def __init__(
        self,
        d_model: int,
        *,
        ffn_mult: int = 4,
        activation: str = "gelu",
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "ffn",
    ):
        super().__init__()
        if activation not in ("relu", "leaky_relu", "gelu", "glu"):
            raise ConfigError(f"unsupported FFN activation {activation!r}")
        self._name = name
        self.activation = activation
        rng = module_rng(rng, materialize)
        hidden = d_model * ffn_mult
        # GLU consumes two gates worth of hidden width and halves it back.
        first_out = hidden * 2 if activation == "glu" else hidden
        self.w1 = ht.Linear(d_model, first_out, rng=derive(rng, name, "w1"),
                            materialize=materialize, name="w1")
        self.w2 = ht.Linear(hidden, d_model, rng=derive(rng, name, "w2"),
                            materialize=materialize, name="w2")

    def forward(self, x: Tensor) -> Tensor:
        h = self.w1(x)
        with ht.scope(self.activation):
            h = F.ACTIVATIONS[self.activation](h)
        return self.w2(h)
