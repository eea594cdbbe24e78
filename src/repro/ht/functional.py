"""Functional ops of the ``ht`` frontend.

Every function here emits exactly one graph node (plus eager numpy
compute in concrete mode) and registers a tape entry when gradients are
required. The op vocabulary intentionally matches the paper's Table 1
probes and §4's insight #2: *basic Torch-level operations*, no
``einsum``-style abstractions, so the GraphCompiler sees the mapping-
friendly graph the paper recommends.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..synapse.ops import op as op_def
from ..util.errors import ShapeError
from . import recorder as _rec
from .recorder import TapeEntry
from .tensor import Parameter, Tensor, ensure_tensor

TensorLike = "Tensor | Parameter"


def apply_op(
    op_name: str,
    inputs: list[TensorLike],
    attrs: dict[str, Any] | None = None,
    *,
    differentiable: bool = True,
    name: str = "",
) -> Tensor:
    """Emit one node; the workhorse behind every public function."""
    rec = _rec.current()
    attrs = dict(attrs or {})
    tensors = [ensure_tensor(t) for t in inputs]
    opdef = op_def(op_name)
    out_shape = opdef.infer_shape([t.shape for t in tensors], attrs)
    out_value = rec.graph.add_value(out_shape, tensors[0].dtype, name=name)
    rec.graph.add_node(
        op_name,
        [t.vid for t in tensors],
        out_value,
        attrs=attrs,
        src=rec.src_override or "",
        scope=rec.scope_path,
    )
    data = None
    if rec.concrete:
        data = opdef.compute([t.data for t in tensors], attrs)
        if tuple(np.shape(data)) != out_shape:
            raise ShapeError(
                f"{op_name}: compute produced shape {np.shape(data)}, "
                f"inferred {out_shape}"
            )
    requires_grad = differentiable and any(t.requires_grad for t in tensors)
    out = Tensor(out_value, data, requires_grad=requires_grad)
    if requires_grad:
        rec.tape.append(TapeEntry(op_name, tensors, out, attrs))
    return out


# -- arithmetic ---------------------------------------------------------------


def matmul(a: TensorLike, b: TensorLike, *, transpose_a: bool = False,
           transpose_b: bool = False) -> Tensor:
    """Matrix product — the only op that reaches the MME (Table 1)."""
    return apply_op("matmul", [a, b], {
        "transpose_a": transpose_a, "transpose_b": transpose_b,
    })


def bmm(a: TensorLike, b: TensorLike) -> Tensor:
    """Batched matmul (torch.bmm); same node kind as :func:`matmul`."""
    return matmul(a, b)


def add(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise sum (broadcasting)."""
    return apply_op("add", [a, b])


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise difference (broadcasting)."""
    return apply_op("sub", [a, b])


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise product (broadcasting)."""
    return apply_op("mul", [a, b])


def div(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise quotient (broadcasting)."""
    return apply_op("div", [a, b])


def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise maximum."""
    return apply_op("maximum", [a, b])


def where(mask: TensorLike, a: TensorLike, b: TensorLike) -> Tensor:
    """a where mask is nonzero, else b; the mask carries no gradient."""
    return apply_op("where", [mask, a, b])


def add_scalar(x: TensorLike, alpha: float) -> Tensor:
    """scalar + tensor — still a TPC op (Table 1)."""
    return apply_op("sadd", [x], {"alpha": alpha})


def mul_scalar(x: TensorLike, alpha: float) -> Tensor:
    """scalar * tensor — still a TPC op (Table 1)."""
    return apply_op("smul", [x], {"alpha": alpha})


def pow_scalar(x: TensorLike, alpha: float) -> Tensor:
    """tensor ** scalar."""
    return apply_op("spow", [x], {"alpha": alpha})


def neg(x: TensorLike) -> Tensor:
    """Negation."""
    return apply_op("neg", [x])


def square(x: TensorLike) -> Tensor:
    """torch.square."""
    return apply_op("square", [x])


def abs(x: TensorLike) -> Tensor:  # noqa: A001 - mirrors torch.abs
    """Absolute value."""
    return apply_op("abs", [x])


# -- special functions ---------------------------------------------------------


def exp(x: TensorLike) -> Tensor:
    """Exponential (12-cycle TPC special function)."""
    return apply_op("exp", [x])


def log(x: TensorLike) -> Tensor:
    """Natural logarithm."""
    return apply_op("log", [x])


def sqrt(x: TensorLike) -> Tensor:
    """Square root."""
    return apply_op("sqrt", [x])


def rsqrt(x: TensorLike) -> Tensor:
    """Reciprocal square root."""
    return apply_op("rsqrt", [x])


def sigmoid(x: TensorLike) -> Tensor:
    """Logistic sigmoid."""
    return apply_op("sigmoid", [x])


def tanh(x: TensorLike) -> Tensor:
    """Hyperbolic tangent."""
    return apply_op("tanh", [x])


# -- activations -----------------------------------------------------------------


def relu(x: TensorLike) -> Tensor:
    """ReLU."""
    return apply_op("relu", [x])


def leaky_relu(x: TensorLike, slope: float = 0.01) -> Tensor:
    """LeakyReLU."""
    return apply_op("leaky_relu", [x], {"slope": slope})


def gelu(x: TensorLike) -> Tensor:
    """GELU (tanh approximation)."""
    return apply_op("gelu", [x])


def elu(x: TensorLike) -> Tensor:
    """ELU — the Linear Transformer feature-map activation."""
    return apply_op("elu", [x])


def glu(x: TensorLike) -> Tensor:
    """Gated linear unit; triggers a SynapseAI recompilation (§3.3)."""
    return apply_op("glu", [x])


def dropout(x: TensorLike, p: float, *, seed: int, training: bool = True) -> Tensor:
    """Training dropout: mask + rescale on the TPC; identity when not
    training or ``p == 0``. The same ``seed`` reproduces the mask."""
    if not training or p == 0.0:
        return ensure_tensor(x)
    if not 0.0 < p < 1.0:
        raise ShapeError(f"dropout p must be in [0, 1), got {p}")
    return apply_op("dropout", [x], {"p": float(p), "seed": int(seed)})


ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "gelu": gelu,
    "elu": elu,
    "glu": glu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "exp": exp,
}


# -- reductions --------------------------------------------------------------------


def _check_axis(axis: "int | None") -> "int | None":
    # multi-axis reductions are not differentiable through this
    # frontend; keep the surface honest rather than failing deep in
    # the autograd
    if axis is not None and not isinstance(axis, int):
        raise ShapeError(
            f"reduction axis must be an int or None, got {axis!r}; "
            "chain single-axis reductions for multi-axis sums"
        )
    return axis


def sum(x: TensorLike, axis: int | None = None,  # noqa: A001
        keepdims: bool = False) -> Tensor:
    """Sum reduction (SIMD-hostile on the TPC, §3.3)."""
    return apply_op("sum", [x], {"axis": _check_axis(axis),
                                 "keepdims": keepdims})


def mean(x: TensorLike, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Mean reduction."""
    return apply_op("mean", [x], {"axis": _check_axis(axis),
                                  "keepdims": keepdims})


def max(x: TensorLike, axis: int | None = None,  # noqa: A001
        keepdims: bool = False) -> Tensor:
    """Max reduction."""
    return apply_op("max", [x], {"axis": _check_axis(axis),
                                 "keepdims": keepdims})


# -- composites (lowered by the GraphCompiler) ----------------------------------------


def softmax(x: TensorLike, axis: int = -1) -> Tensor:
    """Softmax — lowered to max/sub/exp/sum/div, all on the TPC."""
    return apply_op("softmax", [x], {"axis": axis})


def log_softmax(x: TensorLike, axis: int = -1) -> Tensor:
    """Log-softmax (classification losses)."""
    return apply_op("log_softmax", [x], {"axis": axis})


# -- shape / data movement ---------------------------------------------------------


def reshape(x: TensorLike, shape: tuple[int, ...]) -> Tensor:
    """Reshape (device-free view)."""
    shape = tuple(int(d) for d in shape)
    if any(d == -1 for d in shape):
        known = 1
        for d in shape:
            if d != -1:
                known *= d
        missing = ensure_tensor(x).numel // known
        shape = tuple(missing if d == -1 else d for d in shape)
    return apply_op("reshape", [x], {"shape": shape})


def transpose(x: TensorLike, axes: tuple[int, ...] | None = None) -> Tensor:
    """Physical permutation (pays memory traffic)."""
    t = ensure_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(t.ndim)))
    return apply_op("transpose", [t], {"axes": tuple(axes)})


def broadcast_to(x: TensorLike, shape: tuple[int, ...]) -> Tensor:
    """Broadcast (view)."""
    return apply_op("broadcast_to", [x], {"shape": tuple(shape)})


def slice_last(x: TensorLike, lo: int, hi: int) -> Tensor:
    """Contiguous slice along the last dim."""
    return apply_op("slice_last", [x], {"lo": lo, "hi": hi})


def concat_last(a: TensorLike, b: TensorLike) -> Tensor:
    """Concatenate along the last dim."""
    return apply_op("concat_last", [a, b])


def slice_rows(x: TensorLike, lo: int, hi: int) -> Tensor:
    """Row-block slice along dim -2 (free view for contiguous tensors)."""
    return apply_op("slice_rows", [x], {"lo": lo, "hi": hi})


def concat_rows(a: TensorLike, b: TensorLike) -> Tensor:
    """Concatenate along dim -2."""
    return apply_op("concat_rows", [a, b])


def gather_rows(table: TensorLike, indices: TensorLike) -> Tensor:
    """Embedding-style row gather; ``indices`` carries no gradient."""
    return apply_op("gather_rows", [table, indices])


def onehot(indices: TensorLike, depth: int) -> Tensor:
    """One-hot expansion of integer indices."""
    return apply_op("onehot", [indices], {"depth": depth},
                    differentiable=False)


def ones_like(x: TensorLike) -> Tensor:
    """torch.ones_like (an actual TPC fill op, as in the FAVOR listing)."""
    return apply_op("ones_like", [x], differentiable=False)


def zeros_like(x: TensorLike) -> Tensor:
    """torch.zeros_like."""
    return apply_op("zeros_like", [x], differentiable=False)


def step_ge0(x: TensorLike) -> Tensor:
    """1 where x >= 0 else 0 (ReLU-family gradients)."""
    return apply_op("step_ge0", [x], differentiable=False)


def eq(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise equality mask (max-reduction gradients)."""
    return apply_op("eq", [a, b], differentiable=False)


# -- losses ---------------------------------------------------------------------


def cross_entropy_with_logits(logits: TensorLike, onehot_targets: TensorLike) -> Tensor:
    """Mean cross-entropy between logits and one-hot targets.

    Composed from primitives (log_softmax, mul, sum, mean) exactly like
    a PyTorch program would lower — the loss ops land on the TPC.
    """
    logp = log_softmax(logits, axis=-1)
    picked = mul(logp, onehot_targets)
    per_example = neg(sum(picked, axis=-1))
    return mean(per_example)
