"""Operation registry: semantics, work estimates, and the Table 1 mapping.

Every op the frontend can emit is described once here:

* ``engine`` — which compute engine SynapseAI maps it to. This encodes
  the paper's Table 1: **only matrix multiplication goes to the MME;
  everything else — even ``scalar * tensor`` — goes to the TPC.**
* ``infer_shape`` / ``compute`` — symbolic and functional semantics
  (the frontend uses ``compute`` for eager numpy execution).
* ``work_item`` construction — FLOPs / bytes / special-function info
  the cost models consume.
* ``composite`` ops (softmax, layernorm, cross-entropy pieces) carry a
  ``lower`` hook the GraphCompiler expands into primitives.
* ``supported`` — ops SynapseAI handles poorly trigger a host
  recompilation (the paper's GLU finding, §3.3).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..hw.costmodel import (
    EXP_OFFLOAD_BASIS,
    EngineKind,
    MatmulDims,
    OpClass,
    WorkItem,
    exp_offload_dims,
    flash_attention_dims,
    windowed_attention_dims,
)
from ..hw.dtypes import DType, itemsize
from ..util.errors import GraphError, ShapeError

Shape = tuple[int, ...]


def _numel(shape: Shape) -> int:
    return int(math.prod(shape)) if shape else 1


def _broadcast(a: Shape, b: Shape) -> Shape:
    """``np.broadcast_shapes(a, b)`` for non-negative dims, in Python."""
    if a == b:
        return tuple(a)
    lead = len(a) - len(b)
    out = list(a[:lead] if lead > 0 else b[:-lead])
    for x, y in zip(a[max(lead, 0):], b[max(-lead, 0):]):
        if x == y or y == 1:
            out.append(x)
        elif x == 1:
            out.append(y)
        else:
            raise ShapeError(f"shapes {a} and {b} are not broadcastable")
    return tuple(out)


# ---------------------------------------------------------------------------
# shape inference helpers


def _same_shape_unary(shapes: list[Shape], attrs: dict) -> Shape:
    return shapes[0]


def _broadcast_binary(shapes: list[Shape], attrs: dict) -> Shape:
    return _broadcast(shapes[0], shapes[1])


def matmul_spec(a: Shape, b: Shape, attrs: dict) -> tuple[Shape, MatmulDims]:
    """Output shape + GEMM dims of a (batched, broadcast) matmul."""
    ta = bool(attrs.get("transpose_a", False))
    tb = bool(attrs.get("transpose_b", False))
    if len(a) < 2 or len(b) < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a} @ {b}")
    am, ak = (a[-1], a[-2]) if ta else (a[-2], a[-1])
    bk, bn = (b[-1], b[-2]) if tb else (b[-2], b[-1])
    if ak != bk:
        raise ShapeError(f"matmul contraction mismatch: {a} @ {b} (K {ak} vs {bk})")
    batch_shape = _broadcast(a[:-2], b[:-2])
    out = batch_shape + (am, bn)
    dims = MatmulDims(max(1, _numel(batch_shape)), am, bn, ak)
    return out, dims


def _matmul_shape(shapes: list[Shape], attrs: dict) -> Shape:
    return matmul_spec(shapes[0], shapes[1], attrs)[0]


def _reduce_shape(shapes: list[Shape], attrs: dict) -> Shape:
    shape = shapes[0]
    axis = attrs.get("axis")
    keepdims = bool(attrs.get("keepdims", False))
    if axis is None:
        return tuple(1 for _ in shape) if keepdims else ()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    out = []
    for i, d in enumerate(shape):
        if i in axes:
            if keepdims:
                out.append(1)
        else:
            out.append(d)
    return tuple(out)


def _transpose_shape(shapes: list[Shape], attrs: dict) -> Shape:
    shape = shapes[0]
    axes = attrs.get("axes")
    if axes is None:
        axes = tuple(reversed(range(len(shape))))
    if sorted(a % len(shape) for a in axes) != list(range(len(shape))):
        raise ShapeError(f"invalid transpose axes {axes} for rank {len(shape)}")
    return tuple(shape[a % len(shape)] for a in axes)


def _reshape_shape(shapes: list[Shape], attrs: dict) -> Shape:
    new = tuple(attrs["shape"])
    if _numel(new) != _numel(shapes[0]):
        raise ShapeError(f"cannot reshape {shapes[0]} to {new}")
    return new


def _broadcast_to_shape(shapes: list[Shape], attrs: dict) -> Shape:
    target = tuple(attrs["shape"])
    if _broadcast(shapes[0], target) != target:
        raise ShapeError(f"cannot broadcast {shapes[0]} to {target}")
    return target


def _gather_rows_shape(shapes: list[Shape], attrs: dict) -> Shape:
    table, idx = shapes
    if len(table) != 2:
        raise ShapeError(f"gather_rows table must be rank 2, got {table}")
    return idx + (table[1],)


def _glu_shape(shapes: list[Shape], attrs: dict) -> Shape:
    shape = shapes[0]
    if shape[-1] % 2:
        raise ShapeError(f"glu last dim must be even, got {shape}")
    return shape[:-1] + (shape[-1] // 2,)


# ---------------------------------------------------------------------------
# functional kernels (numpy)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    # rows whose max is non-finite would turn x - m into inf - inf; the
    # shift only needs to be the max on rows where that max is finite
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(x - shift)
    if np.isposinf(m).any():
        # +inf logits take all the mass (split across ties), as the
        # limit of softmax on growing finite logits
        e = np.where(np.isposinf(m), (x == m).astype(x.dtype), e)
    denom = e.sum(axis=axis, keepdims=True)
    # all -inf (or NaN-poisoned) rows have no mass anywhere: return 0
    # rather than warn on 0/0
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def _matmul_compute(inputs: list[np.ndarray], attrs: dict) -> np.ndarray:
    a, b = inputs
    if attrs.get("transpose_a"):
        a = np.swapaxes(a, -1, -2)
    if attrs.get("transpose_b"):
        b = np.swapaxes(b, -1, -2)
    return a @ b


def _reduce_compute(fn: Callable) -> Callable:
    def compute(inputs: list[np.ndarray], attrs: dict) -> np.ndarray:
        axis = attrs.get("axis")
        if isinstance(axis, list):
            axis = tuple(axis)
        return fn(inputs[0], axis=axis, keepdims=bool(attrs.get("keepdims", False)))

    return compute


# ---------------------------------------------------------------------------
# op definition


@dataclass(frozen=True)
class OpDef:
    """Static description of one op kind."""

    name: str
    op_class: OpClass
    engine: EngineKind
    infer_shape: Callable[[list[Shape], dict], Shape]
    compute: Callable[[list[np.ndarray], dict], np.ndarray]
    special_fn: str | None = None
    flops_per_element: float = 1.0
    #: bytes read multiplier on inputs (0.0 for view-only ops)
    reads_inputs: bool = True
    writes_output: bool = True
    composite: bool = False
    supported: bool = True
    #: custom WorkItem builder for ops whose cost shape no generic
    #: op_class branch describes (the attention kernel pack); called as
    #: ``work_item_fn(label, in_shapes, out_shape, dtype, attrs,
    #: bytes_read, bytes_written)``
    work_item_fn: Callable[..., WorkItem] | None = None
    #: human explanation shown in the Table 1 reproduction
    doc: str = ""


_REGISTRY: dict[str, OpDef] = {}


def _guard_nonfinite(name: str, compute: Callable) -> Callable:
    """Make a compute kernel warning-free on non-finite inputs.

    Saturated values (exp overflow -> inf) legitimately flow through
    concrete-mode graphs, and numpy raises RuntimeWarnings on the
    follow-on arithmetic (inf - inf in ``add``, 0 * inf, inf / inf).
    The test suite runs with RuntimeWarning as an error, so every
    kernel computes under ``errstate(ignore)`` and clamps indeterminate
    NaNs to 0 (infinities are kept: they are the saturation semantics).
    """

    def wrapped(inputs: list[np.ndarray], attrs: dict) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = compute(inputs, attrs)
        out = np.asarray(out)
        if out.dtype.kind == "f" and not np.isfinite(out).all():
            out = np.nan_to_num(out, nan=0.0, posinf=np.inf, neginf=-np.inf)
        return out

    wrapped.__name__ = f"compute_{name}"
    return wrapped


def register(opdef: OpDef) -> OpDef:
    """Add an op definition to the registry (names are unique).

    The compute kernel is wrapped by :func:`_guard_nonfinite` so eager
    execution never leaks numpy RuntimeWarnings.
    """
    if opdef.name in _REGISTRY:
        raise GraphError(f"op {opdef.name!r} already registered")
    opdef = dataclasses.replace(
        opdef, compute=_guard_nonfinite(opdef.name, opdef.compute)
    )
    _REGISTRY[opdef.name] = opdef
    return opdef


def op(name: str) -> OpDef:
    """Look up an op definition by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise GraphError(
            f"unknown op {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def op_names() -> list[str]:
    """All registered op names, sorted."""
    return sorted(_REGISTRY)


def engine_for(name: str) -> EngineKind:
    """The Table 1 mapping: which engine runs this op."""
    return op(name).engine


# ---------------------------------------------------------------------------
# work-item construction


def work_item_for(
    name: str,
    in_shapes: list[Shape],
    out_shape: Shape,
    dtype: DType,
    attrs: dict,
    *,
    label: str = "",
    opdef: OpDef | None = None,
) -> WorkItem:
    """Build the cost-model :class:`WorkItem` for one node.

    Callers that already hold the :class:`OpDef` (the compiler memoizes
    one lookup per op kind) pass it via ``opdef`` to skip the registry.
    """
    if opdef is None:
        opdef = op(name)
    isz = itemsize(dtype)
    out_numel = _numel(out_shape)
    bytes_read = (
        sum(_numel(s) * isz for s in in_shapes) if opdef.reads_inputs else 0
    )
    bytes_written = out_numel * isz if opdef.writes_output else 0

    if opdef.work_item_fn is not None:
        # Kernel-pack ops: their GEMM twin is a function of attrs (window
        # size, tile geometry), not of the two-operand matmul_spec form.
        return opdef.work_item_fn(
            label or name, in_shapes, out_shape, dtype, attrs,
            bytes_read, bytes_written,
        )
    if opdef.op_class is OpClass.MATMUL:
        _, dims = matmul_spec(in_shapes[0], in_shapes[1], attrs)
        return WorkItem(
            label or name, OpClass.MATMUL, flops=dims.flops,
            bytes_read=bytes_read, bytes_written=bytes_written,
            elements=out_numel, dtype=dtype, matmul=dims,
        )
    if opdef.op_class is OpClass.REDUCTION:
        in_numel = _numel(in_shapes[0])
        return WorkItem(
            label or name, OpClass.REDUCTION, flops=float(in_numel),
            bytes_read=bytes_read, bytes_written=bytes_written,
            elements=in_numel, dtype=dtype,
        )
    if opdef.op_class is OpClass.SPECIAL:
        return WorkItem(
            label or name, OpClass.SPECIAL,
            flops=out_numel * opdef.flops_per_element,
            bytes_read=bytes_read, bytes_written=bytes_written,
            elements=out_numel, dtype=dtype, special_fn=opdef.special_fn,
        )
    if opdef.op_class is OpClass.DATA_MOVE:
        return WorkItem(
            label or name, OpClass.DATA_MOVE, flops=0.0,
            bytes_read=bytes_read, bytes_written=bytes_written,
            elements=out_numel, dtype=dtype,
        )
    if opdef.op_class is OpClass.COLLECTIVE:
        # The NIC moves the payload; reduction math rides along on the
        # wire (ring all-reduce adds in transit), so flops stay 0 and
        # the fabric plan — not the per-card cost model — prices it.
        return WorkItem(
            label or name, OpClass.COLLECTIVE, flops=0.0,
            bytes_read=bytes_read, bytes_written=bytes_written,
            elements=out_numel, dtype=dtype,
        )
    return WorkItem(
        label or name, OpClass.ELEMENTWISE,
        flops=out_numel * opdef.flops_per_element,
        bytes_read=bytes_read, bytes_written=bytes_written,
        elements=out_numel, dtype=dtype,
    )


# ---------------------------------------------------------------------------
# registry population


def _ew(name, compute, *, flops=1.0, doc="", shape=_same_shape_unary,
        engine=EngineKind.TPC, supported=True):
    register(OpDef(name, OpClass.ELEMENTWISE, engine, shape, compute,
                   flops_per_element=flops, doc=doc, supported=supported))


def _special(name, compute, special_fn, *, flops=1.0, doc="",
             shape=_same_shape_unary):
    register(OpDef(name, OpClass.SPECIAL, EngineKind.TPC, shape, compute,
                   special_fn=special_fn, flops_per_element=flops, doc=doc))


# -- matmul: the only MME citizen (Table 1) --------------------------------
register(OpDef(
    "matmul", OpClass.MATMUL, EngineKind.MME, _matmul_shape, _matmul_compute,
    doc="matrix product (torch.matmul / torch.bmm / nn.Linear)",
))

# -- elementwise binary (TPC per Table 1) ----------------------------------
_ew("add", lambda i, a: i[0] + i[1], shape=_broadcast_binary,
    doc="tensor + tensor")
_ew("sub", lambda i, a: i[0] - i[1], shape=_broadcast_binary,
    doc="tensor - tensor")
_ew("mul", lambda i, a: i[0] * i[1], shape=_broadcast_binary,
    doc="element-wise mul (torch.mul)")
_ew("div", lambda i, a: i[0] / i[1], shape=_broadcast_binary, flops=4.0,
    doc="element-wise division")
_ew("maximum", lambda i, a: np.maximum(i[0], i[1]), shape=_broadcast_binary,
    doc="element-wise max")


def _where_shape(shapes: list[Shape], attrs: dict) -> Shape:
    return _broadcast(_broadcast(shapes[0], shapes[1]), shapes[2])


register(OpDef(
    "where", OpClass.ELEMENTWISE, EngineKind.TPC, _where_shape,
    lambda i, a: np.where(i[0] != 0, i[1], i[2]),
    doc="select by mask (mask, a, b)",
))

# -- scalar-operand ops: still TPC (Table 1's surprising rows) -------------
_ew("smul", lambda i, a: i[0] * a["alpha"], doc="scalar * tensor")
_ew("sadd", lambda i, a: i[0] + a["alpha"], doc="scalar +- tensor")
_ew("spow", lambda i, a: i[0] ** a["alpha"], flops=18.0,
    doc="tensor ** scalar")

# -- elementwise unary ------------------------------------------------------
_ew("neg", lambda i, a: -i[0], doc="negation")
_ew("abs", lambda i, a: np.abs(i[0]), doc="absolute value")
_ew("square", lambda i, a: np.square(i[0]), doc="tensor square (torch.square)")
_ew("relu", lambda i, a: np.maximum(i[0], 0.0), doc="ReLU activation")
_ew("leaky_relu",
    lambda i, a: np.where(i[0] >= 0, i[0], a.get("slope", 0.01) * i[0]),
    flops=2.0, doc="LeakyReLU activation")
_ew("ones_like", lambda i, a: np.ones_like(i[0]), doc="torch.ones_like")
_ew("zeros_like", lambda i, a: np.zeros_like(i[0]), doc="torch.zeros_like")
_ew("fill", lambda i, a: np.full_like(i[0], a["value"]), doc="constant fill")
_ew("cast", lambda i, a: i[0], doc="dtype cast")
_ew("step_ge0", lambda i, a: (i[0] >= 0).astype(i[0].dtype),
    doc="unit step (backward of relu)")
_ew("eq", lambda i, a: (i[0] == i[1]).astype(i[0].dtype),
    shape=_broadcast_binary, doc="elementwise equality mask")
def _dropout_compute(inputs: list[np.ndarray], attrs: dict) -> np.ndarray:
    p = float(attrs["p"])
    keep = 1.0 - p
    rng = np.random.default_rng(int(attrs["seed"]))
    mask = (rng.random(inputs[0].shape) >= p).astype(inputs[0].dtype)
    return inputs[0] * mask / keep


# Dropout: RNG + mask + scale on the TPC (the TPC ISA has "random
# number production", section 2.2). Deterministic per seed, which also
# makes its VJP elegant: dropout is linear in x, so the backward is the
# same masked scaling re-applied to the gradient.
_ew("dropout", _dropout_compute, flops=3.0,
    doc="training dropout (mask + rescale)")

# GLU: elementwise on the TPC, but SynapseAI support is poor — the graph
# compiler triggers a host recompilation when it meets one (section 3.3).
_ew("glu",
    lambda i, a: i[0][..., : i[0].shape[-1] // 2]
    * _sigmoid(i[0][..., i[0].shape[-1] // 2:]),
    flops=5.0, shape=_glu_shape, supported=False,
    doc="gated linear unit (poorly supported: host recompilation)")

# -- special functions (TPC) -------------------------------------------------
_special("exp", lambda i, a: np.exp(i[0]), "exp",
         doc="exponential (large logits saturate to inf, as on hardware)")
_special("log", lambda i, a: np.log(i[0]), "log",
         doc="natural logarithm (torch.log)")
_special("sqrt", lambda i, a: np.sqrt(i[0]), "sqrt",
         doc="square root (torch.sqrt)")
_special("rsqrt", lambda i, a: 1.0 / np.sqrt(i[0]), "rsqrt",
         doc="reciprocal square root")
_special("sigmoid", lambda i, a: _sigmoid(i[0]), "sigmoid", flops=3.0,
         doc="logistic sigmoid")
_special("tanh", lambda i, a: np.tanh(i[0]), "tanh", flops=3.0,
         doc="hyperbolic tangent")
_special("gelu", lambda i, a: _gelu(i[0]), "erf", flops=5.0,
         doc="GELU activation")
_special("elu",
         lambda i, a: np.where(i[0] > 0, i[0], np.expm1(i[0])), "exp",
         flops=3.0, doc="ELU activation (Linear Transformer feature map)")

# -- reductions (TPC; SIMD-hostile per section 3.3) -------------------------
register(OpDef("sum", OpClass.REDUCTION, EngineKind.TPC, _reduce_shape,
               _reduce_compute(np.sum), doc="sum reduction"))
register(OpDef("max", OpClass.REDUCTION, EngineKind.TPC, _reduce_shape,
               _reduce_compute(np.max), doc="max reduction"))
register(OpDef("mean", OpClass.REDUCTION, EngineKind.TPC, _reduce_shape,
               _reduce_compute(np.mean), doc="mean reduction"))

# -- data movement -----------------------------------------------------------
register(OpDef(
    "transpose", OpClass.DATA_MOVE, EngineKind.TPC, _transpose_shape,
    lambda i, a: np.transpose(
        i[0], a.get("axes") or tuple(reversed(range(i[0].ndim)))
    ),
    doc="physical permute (tensor.transpose)",
))
register(OpDef(
    "reshape", OpClass.DATA_MOVE, EngineKind.TPC, _reshape_shape,
    lambda i, a: i[0].reshape(a["shape"]),
    reads_inputs=False, writes_output=False,  # metadata-only view
    doc="reshape (view; no data movement)",
))
register(OpDef(
    "broadcast_to", OpClass.DATA_MOVE, EngineKind.TPC, _broadcast_to_shape,
    lambda i, a: np.broadcast_to(i[0], a["shape"]).copy(),
    reads_inputs=False, writes_output=False,  # stride trick; no traffic
    doc="broadcast (view; no data movement)",
))
register(OpDef(
    "gather_rows", OpClass.DATA_MOVE, EngineKind.TPC, _gather_rows_shape,
    lambda i, a: i[0][i[1].astype(np.int64)],
    doc="embedding-table row gather",
))
register(OpDef(
    "scatter_add_rows", OpClass.DATA_MOVE, EngineKind.TPC,
    lambda shapes, attrs: tuple(attrs["shape"]),
    lambda i, a: _scatter_add_rows(i[0], i[1], tuple(a["shape"])),
    doc="row scatter-add (backward of gather_rows)",
))
def _slice_last_shape(shapes: list[Shape], attrs: dict) -> Shape:
    shape = shapes[0]
    lo, hi = int(attrs["lo"]), int(attrs["hi"])
    if not 0 <= lo <= hi <= shape[-1]:
        raise ShapeError(f"slice_last [{lo}:{hi}] out of range for {shape}")
    return shape[:-1] + (hi - lo,)


def _concat_last_shape(shapes: list[Shape], attrs: dict) -> Shape:
    a, b = shapes
    if a[:-1] != b[:-1]:
        raise ShapeError(f"concat_last: leading dims differ, {a} vs {b}")
    return a[:-1] + (a[-1] + b[-1],)


def _slice_rows_shape(shapes: list[Shape], attrs: dict) -> Shape:
    shape = shapes[0]
    if len(shape) < 2:
        raise ShapeError(f"slice_rows needs rank >= 2, got {shape}")
    lo, hi = int(attrs["lo"]), int(attrs["hi"])
    if not 0 <= lo <= hi <= shape[-2]:
        raise ShapeError(f"slice_rows [{lo}:{hi}] out of range for {shape}")
    return shape[:-2] + (hi - lo, shape[-1])


def _concat_rows_shape(shapes: list[Shape], attrs: dict) -> Shape:
    a, b = shapes
    if a[:-2] != b[:-2] or a[-1] != b[-1]:
        raise ShapeError(f"concat_rows: incompatible {a} vs {b}")
    return a[:-2] + (a[-2] + b[-2], a[-1])


def _assemble_rows_shape(shapes: list[Shape], attrs: dict) -> Shape:
    if not shapes:
        raise ShapeError("assemble_rows needs at least one input")
    first = shapes[0]
    if len(first) < 2:
        raise ShapeError(f"assemble_rows needs rank >= 2 inputs, got {first}")
    rows = 0
    for s in shapes:
        if len(s) != len(first) or s[:-2] != first[:-2] or s[-1] != first[-1]:
            raise ShapeError(f"assemble_rows: incompatible {s} vs {first}")
        rows += s[-2]
    return first[:-2] + (rows, first[-1])


register(OpDef(
    "slice_last", OpClass.DATA_MOVE, EngineKind.TPC, _slice_last_shape,
    lambda i, a: i[0][..., int(a["lo"]): int(a["hi"])].copy(),
    doc="contiguous slice along the last dim",
))
register(OpDef(
    "slice_rows", OpClass.DATA_MOVE, EngineKind.TPC, _slice_rows_shape,
    lambda i, a: i[0][..., int(a["lo"]): int(a["hi"]), :].copy(),
    reads_inputs=False, writes_output=False,  # contiguous view
    doc="row-block slice along dim -2 (a view for contiguous tensors)",
))
register(OpDef(
    "concat_rows", OpClass.DATA_MOVE, EngineKind.TPC, _concat_rows_shape,
    lambda i, a: np.concatenate([i[0], i[1]], axis=-2),
    doc="row-block concatenation along dim -2",
))
register(OpDef(
    "assemble_rows", OpClass.DATA_MOVE, EngineKind.TPC,
    _assemble_rows_shape,
    lambda i, a: np.concatenate(list(i), axis=-2),
    # Zero traffic: the tpc_slicing pass's slices compute directly into
    # disjoint row blocks of the output buffer; this node only restores
    # the dataflow (one launch, no bytes).
    reads_inputs=False, writes_output=False,
    doc="n-ary row-slice reassembly along dim -2 (tpc_slicing pass)",
))
register(OpDef(
    "concat_last", OpClass.DATA_MOVE, EngineKind.TPC, _concat_last_shape,
    lambda i, a: np.concatenate([i[0], i[1]], axis=-1),
    doc="concatenation along the last dim",
))
register(OpDef(
    "onehot", OpClass.DATA_MOVE, EngineKind.TPC,
    lambda shapes, attrs: shapes[0] + (attrs["depth"],),
    lambda i, a: np.eye(a["depth"], dtype=np.float32)[i[0].astype(np.int64)],
    doc="one-hot expansion",
))


def _scatter_add_rows(grad: np.ndarray, idx: np.ndarray, shape: Shape) -> np.ndarray:
    out = np.zeros(shape, dtype=grad.dtype)
    flat_idx = idx.astype(np.int64).reshape(-1)
    np.add.at(out, flat_idx, grad.reshape(-1, grad.shape[-1]))
    return out


# -- collectives (NIC; multi-card data parallelism, §2.1) -------------------
# Per-card view: each card holds one replica of the buffer; the op's
# eager semantics are what a *symmetric* data-parallel run observes
# (every replica identical), so all_reduce/broadcast are identities and
# all_gather stacks num_cards copies. Cross-card timing comes from the
# fabric plan replayed by the multi-card runtime, never from here.


def _all_gather_shape(shapes: list[Shape], attrs: dict) -> Shape:
    p = int(attrs.get("num_cards", 1))
    if p < 1:
        raise ShapeError(f"all_gather num_cards must be >= 1, got {p}")
    return (p,) + shapes[0]


register(OpDef(
    "all_reduce", OpClass.COLLECTIVE, EngineKind.NIC, _same_shape_unary,
    lambda i, a: i[0].copy(),
    doc="ring all-reduce across cards (sum of symmetric replicas)",
))
register(OpDef(
    "all_gather", OpClass.COLLECTIVE, EngineKind.NIC, _all_gather_shape,
    lambda i, a: np.broadcast_to(
        i[0][None], (int(a.get("num_cards", 1)),) + i[0].shape
    ).copy(),
    doc="ring all-gather: stack each card's shard along a new axis",
))
register(OpDef(
    "broadcast", OpClass.COLLECTIVE, EngineKind.NIC, _same_shape_unary,
    lambda i, a: i[0].copy(),
    doc="chain broadcast of the root card's buffer",
))


def _reduce_scatter_shape(shapes: list[Shape], attrs: dict) -> Shape:
    p = int(attrs.get("num_cards", 1))
    if p < 1:
        raise ShapeError(f"reduce_scatter num_cards must be >= 1, got {p}")
    numel = 1
    for dim in shapes[0]:
        numel *= dim
    if numel % p:
        raise ShapeError(
            f"reduce_scatter payload of {numel} elements does not split "
            f"into {p} per-card shards"
        )
    return (numel // p,)


register(OpDef(
    "reduce_scatter", OpClass.COLLECTIVE, EngineKind.NIC,
    _reduce_scatter_shape,
    lambda i, a: i[0].reshape(-1)[
        : i[0].size // int(a.get("num_cards", 1))
    ].copy(),
    doc="ring reduce-scatter: each card keeps one reduced 1/p shard",
))
# Point-to-point stage-boundary transfers (pipeline parallelism).
# Same per-card identity convention as the ring collectives: the
# symmetric replica observes the buffer unchanged; the p2p fabric plan
# prices the hop.
register(OpDef(
    "send", OpClass.COLLECTIVE, EngineKind.NIC, _same_shape_unary,
    lambda i, a: i[0].copy(),
    doc="point-to-point send of a stage-boundary buffer",
))
register(OpDef(
    "recv", OpClass.COLLECTIVE, EngineKind.NIC, _same_shape_unary,
    lambda i, a: i[0].copy(),
    doc="point-to-point receive of a stage-boundary buffer",
))

# -- composite ops (lowered by the GraphCompiler) ----------------------------
register(OpDef(
    "softmax", OpClass.ELEMENTWISE, EngineKind.TPC,
    lambda shapes, attrs: shapes[0],
    lambda i, a: _softmax(i[0], a.get("axis", -1)),
    composite=True, flops_per_element=5.0,
    doc="softmax (lowered to max/sub/exp/sum/div on the TPC)",
))
register(OpDef(
    "log_softmax", OpClass.ELEMENTWISE, EngineKind.TPC,
    lambda shapes, attrs: shapes[0],
    lambda i, a: i[0]
    - i[0].max(axis=a.get("axis", -1), keepdims=True)
    - np.log(
        np.exp(i[0] - i[0].max(axis=a.get("axis", -1), keepdims=True)).sum(
            axis=a.get("axis", -1), keepdims=True
        )
    ),
    composite=True, flops_per_element=5.0,
    doc="log-softmax (lowered)",
))


# -- attention kernel pack (PR-9 GFormer-style lowerings) --------------------
# These ops are what the ``attention_lowering`` compiler pass splices in
# for the non-naive kernel choices. Their numerics mirror the naive cone
# (the fused trio composes to exactly the lowered softmax; the attention
# ops apply the same -1e9 masking the frontend's causal mask uses), and
# their cost shapes come from the analytic twins in
# :mod:`repro.hw.costmodel` so the aggregate simulator prices the same
# structure the mini-ISA kernels in :mod:`repro.tpc.kernels` implement.

#: Finite mask value of the attention kernels. Matches the frontend's
#: causal-mask constant (``models.attention``): after the stable
#: max-shift, ``exp`` of a masked score underflows to exactly 0.0, so
#: masking by ``where(keep, s, -1e9)`` and masking by ``add(s, -1e9)``
#: produce byte-identical probabilities on finite scores.
ATTENTION_MASK_VALUE = -1.0e9


def _softmax_shift(inputs: list[np.ndarray], attrs: dict) -> np.ndarray:
    x = inputs[0]
    m = x.max(axis=attrs.get("axis", -1), keepdims=True)
    return x - np.where(np.isfinite(m), m, 0.0)


def _softmax_norm(inputs: list[np.ndarray], attrs: dict) -> np.ndarray:
    e = inputs[0]
    denom = e.sum(axis=attrs.get("axis", -1), keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def attention_keep_mask(n_q: int, n_k: int, attrs: dict) -> np.ndarray:
    """Boolean (n_q, n_k) keep-mask from causal/window attrs."""
    i = np.arange(n_q)[:, None]
    j = np.arange(n_k)[None, :]
    keep = np.ones((n_q, n_k), dtype=bool)
    causal = bool(attrs.get("causal", False))
    if causal:
        keep &= j <= i
    window = attrs.get("window")
    if window is not None:
        w = int(window)
        if causal:
            keep &= j > i - w
        else:
            keep &= (j >= i - (w - 1) // 2) & (j <= i + w // 2)
    return keep


def _attention_shape(shapes: list[Shape], attrs: dict) -> Shape:
    if len(shapes) != 3:
        raise ShapeError(f"attention expects q, k, v; got {len(shapes)} inputs")
    q, k, v = shapes
    if min(len(q), len(k), len(v)) < 2:
        raise ShapeError(f"attention operands need rank >= 2: {q}, {k}, {v}")
    if q[:-2] != k[:-2] or q[:-2] != v[:-2]:
        raise ShapeError(f"attention batch dims differ: {q}, {k}, {v}")
    if q[-1] != k[-1] or k[-2] != v[-2]:
        raise ShapeError(f"attention contraction mismatch: {q}, {k}, {v}")
    return q[:-1] + (v[-1],)


def _attention_compute(inputs: list[np.ndarray], attrs: dict) -> np.ndarray:
    q, k, v = inputs
    scale = float(attrs.get("scale", q.shape[-1] ** -0.5))
    s = (q @ np.swapaxes(k, -1, -2)) * scale
    keep = attention_keep_mask(q.shape[-2], k.shape[-2], attrs)
    s = np.where(keep, s, ATTENTION_MASK_VALUE)
    return _softmax(s, -1) @ v


def _exp_basis_item(label, in_shapes, out_shape, dtype, attrs,
                    bytes_read, bytes_written) -> WorkItem:
    dims = exp_offload_dims(out_shape, int(attrs.get("basis",
                                                     EXP_OFFLOAD_BASIS)))
    return WorkItem(
        label, OpClass.MATMUL, flops=dims.flops,
        bytes_read=bytes_read, bytes_written=bytes_written,
        elements=_numel(out_shape), dtype=dtype, matmul=dims,
    )


def _windowed_attention_item(label, in_shapes, out_shape, dtype, attrs,
                             bytes_read, bytes_written) -> WorkItem:
    q = in_shapes[0]
    dims = windowed_attention_dims(
        max(1, _numel(q[:-2])), q[-2], q[-1],
        int(attrs.get("window", q[-2])), bool(attrs.get("causal", False)),
    )
    return WorkItem(
        label, OpClass.MATMUL, flops=dims.flops,
        bytes_read=bytes_read, bytes_written=bytes_written,
        elements=_numel(out_shape), dtype=dtype, matmul=dims,
    )


def _flash_attention_item(label, in_shapes, out_shape, dtype, attrs,
                          bytes_read, bytes_written) -> WorkItem:
    q = in_shapes[0]
    dims = flash_attention_dims(
        max(1, _numel(q[:-2])), q[-2], q[-1],
        int(attrs.get("q_block", 128)), int(attrs.get("k_block", 128)),
        bool(attrs.get("causal", False)),
    )
    return WorkItem(
        label, OpClass.MATMUL, flops=dims.flops,
        bytes_read=bytes_read, bytes_written=bytes_written,
        elements=_numel(out_shape), dtype=dtype, matmul=dims,
    )


register(OpDef(
    "softmax_shift", OpClass.ELEMENTWISE, EngineKind.TPC,
    _same_shape_unary, _softmax_shift, flops_per_element=2.0,
    doc="x - rowmax(x): TPC front end of the fused softmax",
))
register(OpDef(
    "exp_basis_mm", OpClass.MATMUL, EngineKind.MME,
    _same_shape_unary, lambda i, a: np.exp(i[0]),
    work_item_fn=_exp_basis_item,
    doc="exp as a thin-K matmul against a fixed basis on the MME "
        "(GFormer exp offload); numerically exact here",
))
register(OpDef(
    "softmax_norm", OpClass.ELEMENTWISE, EngineKind.TPC,
    _same_shape_unary, _softmax_norm, flops_per_element=3.0,
    doc="e / rowsum(e): TPC back end of the fused softmax",
))
register(OpDef(
    "windowed_attention", OpClass.MATMUL, EngineKind.TPC,
    _attention_shape, _attention_compute,
    work_item_fn=_windowed_attention_item,
    doc="banded QK^T -> softmax -> V TPC kernel over a sliding window, "
        "skipping fully masked key blocks",
))
register(OpDef(
    "flash_attention", OpClass.MATMUL, EngineKind.MME,
    _attention_shape, _attention_compute,
    work_item_fn=_flash_attention_item,
    doc="tiled online-softmax attention; the score matrix never reaches "
        "HBM (running max/denominator stay in local memory)",
))
