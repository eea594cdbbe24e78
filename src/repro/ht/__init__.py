"""``ht`` — the "Habana torch" frontend.

A PyTorch-flavoured eager tensor API that records every op into a
:class:`~repro.synapse.graph.Graph` for the GraphCompiler, with
reverse-mode autograd, a module system, and optimizers. Concrete mode
(numpy values) for correctness; symbolic mode (shapes only) for
paper-scale profiling.
"""

from . import functional
from .autograd import VJP, backward
from .module import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Sequential,
)
from .optim import AdamLike, SGD
from .recorder import (
    Recorder,
    checkpoint,
    current,
    has_active,
    record,
    scope,
)
from .tensor import (
    Parameter,
    Tensor,
    const,
    ensure_tensor,
    input_tensor,
    randn,
    tensor,
)
from . import init

__all__ = [
    "functional",
    "VJP",
    "backward",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "Sequential",
    "AdamLike",
    "SGD",
    "Recorder",
    "checkpoint",
    "current",
    "has_active",
    "record",
    "scope",
    "Parameter",
    "Tensor",
    "const",
    "ensure_tensor",
    "input_tensor",
    "randn",
    "tensor",
    "init",
]
