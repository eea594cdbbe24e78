"""Reverse-mode autograd over the recorded tape.

Backward passes are *recorded like any other computation*: every VJP
emits ordinary graph ops, so a profiled training step contains the
gradient matmuls (MME) and the gradient reductions / elementwise ops
(TPC) exactly as the paper's end-to-end traces do (Figs 8/9). Backward
nodes carry ``src = "<op>_bwd"`` so trace attribution can separate, say,
``softmax`` from ``softmax_bwd``.
"""

from __future__ import annotations

from typing import Callable

from ..util.errors import AutogradError
from . import functional as F
from . import recorder as _rec
from .recorder import TapeEntry
from .tensor import Tensor

VjpFn = Callable[[TapeEntry, Tensor], list["Tensor | None"]]

VJP: dict[str, VjpFn] = {}


def vjp(name: str) -> Callable[[VjpFn], VjpFn]:
    """Register the VJP for op ``name``."""

    def deco(fn: VjpFn) -> VjpFn:
        if name in VJP:
            raise AutogradError(f"VJP for {name!r} already registered")
        VJP[name] = fn
        return fn

    return deco


# -- broadcasting helpers -----------------------------------------------------


def _reduce_to_shape(grad: Tensor, target: tuple[int, ...]) -> Tensor:
    """Sum ``grad`` back down to ``target`` (undo numpy broadcasting)."""
    if grad.shape == target:
        return grad
    # sum away extra leading dims
    extra = len(grad.shape) - len(target)
    for _ in range(extra):
        grad = F.sum(grad, axis=0)
    # sum dims that were broadcast from 1
    for axis, (g, t) in enumerate(zip(grad.shape, target)):
        if t == 1 and g != 1:
            grad = F.sum(grad, axis=axis, keepdims=True)
    if grad.shape != target:
        raise AutogradError(
            f"cannot reduce gradient {grad.shape} to {target}"
        )
    return grad


def _unreduce(grad: Tensor, in_shape: tuple[int, ...], attrs: dict) -> Tensor:
    """Expand a reduction's gradient back to the input shape."""
    axis = attrs.get("axis")
    keepdims = bool(attrs.get("keepdims", False))
    if not keepdims:
        if axis is None:
            kept = tuple(1 for _ in in_shape)
        else:
            axes = {(axis if axis >= 0 else axis + len(in_shape))}
            kept = tuple(
                1 if i in axes else d for i, d in enumerate(in_shape)
            )
        grad = F.reshape(grad, kept)
    return F.broadcast_to(grad, in_shape)


def _reduced_count(in_shape: tuple[int, ...], attrs: dict) -> int:
    axis = attrs.get("axis")
    if axis is None:
        n = 1
        for d in in_shape:
            n *= d
        return n
    return in_shape[axis if axis >= 0 else axis + len(in_shape)]


# -- arithmetic ----------------------------------------------------------------


@vjp("matmul")
def _matmul_vjp(entry: TapeEntry, grad: Tensor) -> list[Tensor | None]:
    a, b = entry.inputs
    ta = bool(entry.attrs.get("transpose_a", False))
    tb = bool(entry.attrs.get("transpose_b", False))
    # dA' = G @ B'(T); dB' = A'(T) @ G, then undo the operand transposes.
    da = F.matmul(grad, b, transpose_b=not tb)
    if ta:
        da = da.transpose(-2, -1)
    db = F.matmul(a, grad, transpose_a=not ta)
    if tb:
        db = db.transpose(-2, -1)
    return [_reduce_to_shape(da, a.shape), _reduce_to_shape(db, b.shape)]


@vjp("add")
def _add_vjp(entry, grad):
    a, b = entry.inputs
    return [_reduce_to_shape(grad, a.shape), _reduce_to_shape(grad, b.shape)]


@vjp("sub")
def _sub_vjp(entry, grad):
    a, b = entry.inputs
    return [
        _reduce_to_shape(grad, a.shape),
        _reduce_to_shape(F.neg(grad), b.shape),
    ]


@vjp("mul")
def _mul_vjp(entry, grad):
    a, b = entry.inputs
    return [
        _reduce_to_shape(F.mul(grad, b), a.shape),
        _reduce_to_shape(F.mul(grad, a), b.shape),
    ]


@vjp("div")
def _div_vjp(entry, grad):
    a, b = entry.inputs
    da = F.div(grad, b)
    db = F.neg(F.mul(grad, F.div(entry.output, b)))
    return [_reduce_to_shape(da, a.shape), _reduce_to_shape(db, b.shape)]


@vjp("maximum")
def _maximum_vjp(entry, grad):
    a, b = entry.inputs
    mask = F.step_ge0(F.sub(a, b))
    da = F.mul(grad, mask)
    db = F.mul(grad, F.add_scalar(F.neg(mask), 1.0))
    return [_reduce_to_shape(da, a.shape), _reduce_to_shape(db, b.shape)]


@vjp("where")
def _where_vjp(entry, grad):
    mask, a, b = entry.inputs
    keep = F.step_ge0(F.add_scalar(F.abs(mask), -0.5))  # nonzero -> 1
    da = _reduce_to_shape(F.mul(grad, keep), a.shape)
    db = _reduce_to_shape(
        F.mul(grad, F.add_scalar(F.neg(keep), 1.0)), b.shape
    )
    return [None, da, db]


@vjp("sadd")
def _sadd_vjp(entry, grad):
    return [grad]


@vjp("smul")
def _smul_vjp(entry, grad):
    return [F.mul_scalar(grad, float(entry.attrs["alpha"]))]


@vjp("spow")
def _spow_vjp(entry, grad):
    (x,) = entry.inputs
    alpha = float(entry.attrs["alpha"])
    return [F.mul(grad, F.mul_scalar(F.pow_scalar(x, alpha - 1.0), alpha))]


@vjp("neg")
def _neg_vjp(entry, grad):
    return [F.neg(grad)]


@vjp("abs")
def _abs_vjp(entry, grad):
    (x,) = entry.inputs
    sign = F.add_scalar(F.mul_scalar(F.step_ge0(x), 2.0), -1.0)
    return [F.mul(grad, sign)]


@vjp("square")
def _square_vjp(entry, grad):
    (x,) = entry.inputs
    return [F.mul(grad, F.mul_scalar(x, 2.0))]


@vjp("cast")
def _cast_vjp(entry, grad):
    return [grad]


@vjp("dropout")
def _dropout_vjp(entry, grad):
    # dropout is linear in x: the backward re-applies the same masked
    # scaling (same seed -> same mask).
    return [F.apply_op("dropout", [grad], dict(entry.attrs))]


# -- special functions ------------------------------------------------------------


@vjp("exp")
def _exp_vjp(entry, grad):
    return [F.mul(grad, entry.output)]


@vjp("log")
def _log_vjp(entry, grad):
    (x,) = entry.inputs
    return [F.div(grad, x)]


@vjp("sqrt")
def _sqrt_vjp(entry, grad):
    return [F.div(F.mul_scalar(grad, 0.5), entry.output)]


@vjp("rsqrt")
def _rsqrt_vjp(entry, grad):
    (x,) = entry.inputs
    # d/dx x^-1/2 = -1/2 x^-3/2 = -1/2 * out / x
    return [F.mul(grad, F.mul_scalar(F.div(entry.output, x), -0.5))]


@vjp("sigmoid")
def _sigmoid_vjp(entry, grad):
    out = entry.output
    return [F.mul(grad, F.mul(out, F.add_scalar(F.neg(out), 1.0)))]


@vjp("tanh")
def _tanh_vjp(entry, grad):
    out = entry.output
    return [F.mul(grad, F.add_scalar(F.neg(F.square(out)), 1.0))]


# -- activations ---------------------------------------------------------------------


@vjp("relu")
def _relu_vjp(entry, grad):
    (x,) = entry.inputs
    return [F.mul(grad, F.step_ge0(x))]


@vjp("leaky_relu")
def _leaky_relu_vjp(entry, grad):
    (x,) = entry.inputs
    slope = float(entry.attrs.get("slope", 0.01))
    step = F.step_ge0(x)
    factor = F.add_scalar(F.mul_scalar(step, 1.0 - slope), slope)
    return [F.mul(grad, factor)]


@vjp("elu")
def _elu_vjp(entry, grad):
    (x,) = entry.inputs
    step = F.step_ge0(x)
    neg_branch = F.add_scalar(entry.output, 1.0)  # exp(x) for x < 0
    factor = F.add(
        step, F.mul(F.add_scalar(F.neg(step), 1.0), neg_branch)
    )
    return [F.mul(grad, factor)]


@vjp("gelu")
def _gelu_vjp(entry, grad):
    import math

    (x,) = entry.inputs
    c = math.sqrt(2.0 / math.pi)
    x2 = F.square(x)
    u = F.mul_scalar(F.add(x, F.mul_scalar(F.mul(x, x2), 0.044715)), c)
    t = F.tanh(u)
    du = F.mul_scalar(
        F.add_scalar(F.mul_scalar(x2, 3.0 * 0.044715), 1.0), c
    )
    sech2 = F.add_scalar(F.neg(F.square(t)), 1.0)
    d = F.add(
        F.mul_scalar(F.add_scalar(t, 1.0), 0.5),
        F.mul_scalar(F.mul(F.mul(x, sech2), du), 0.5),
    )
    return [F.mul(grad, d)]


@vjp("glu")
def _glu_vjp(entry, grad):
    (x,) = entry.inputs
    half = x.shape[-1] // 2
    a = F.slice_last(x, 0, half)
    b = F.slice_last(x, half, x.shape[-1])
    sig = F.sigmoid(b)
    da = F.mul(grad, sig)
    db = F.mul(
        grad, F.mul(a, F.mul(sig, F.add_scalar(F.neg(sig), 1.0)))
    )
    return [F.concat_last(da, db)]


# -- reductions ------------------------------------------------------------------------


@vjp("sum")
def _sum_vjp(entry, grad):
    (x,) = entry.inputs
    return [_unreduce(grad, x.shape, entry.attrs)]


@vjp("mean")
def _mean_vjp(entry, grad):
    (x,) = entry.inputs
    count = _reduced_count(x.shape, entry.attrs)
    return [F.mul_scalar(_unreduce(grad, x.shape, entry.attrs), 1.0 / count)]


@vjp("max")
def _max_vjp(entry, grad):
    (x,) = entry.inputs
    expanded = _unreduce(entry.output, x.shape, entry.attrs)
    mask = F.eq(x, expanded)
    return [F.mul(_unreduce(grad, x.shape, entry.attrs), mask)]


# -- composites --------------------------------------------------------------------------


@vjp("softmax")
def _softmax_vjp(entry, grad):
    out = entry.output
    axis = entry.attrs.get("axis", -1)
    inner = F.sum(F.mul(grad, out), axis=axis, keepdims=True)
    return [F.mul(F.sub(grad, inner), out)]


@vjp("log_softmax")
def _log_softmax_vjp(entry, grad):
    out = entry.output
    axis = entry.attrs.get("axis", -1)
    gsum = F.sum(grad, axis=axis, keepdims=True)
    return [F.sub(grad, F.mul(F.exp(out), gsum))]


# -- data movement ------------------------------------------------------------------------


@vjp("reshape")
def _reshape_vjp(entry, grad):
    (x,) = entry.inputs
    return [F.reshape(grad, x.shape)]


@vjp("transpose")
def _transpose_vjp(entry, grad):
    (x,) = entry.inputs
    axes = entry.attrs.get("axes") or tuple(reversed(range(x.ndim)))
    axes = tuple(a % len(axes) for a in axes)
    inverse = [0] * len(axes)
    for i, a in enumerate(axes):
        inverse[a] = i
    return [F.transpose(grad, tuple(inverse))]


@vjp("broadcast_to")
def _broadcast_vjp(entry, grad):
    (x,) = entry.inputs
    return [_reduce_to_shape(grad, x.shape)]


@vjp("slice_last")
def _slice_last_vjp(entry, grad):
    (x,) = entry.inputs
    lo, hi = int(entry.attrs["lo"]), int(entry.attrs["hi"])
    width = x.shape[-1]
    pieces = grad
    if lo > 0:
        left = F.zeros_like(F.slice_last(x, 0, lo))
        pieces = F.concat_last(left, pieces)
    if hi < width:
        right = F.zeros_like(F.slice_last(x, hi, width))
        pieces = F.concat_last(pieces, right)
    return [pieces]


@vjp("concat_last")
def _concat_last_vjp(entry, grad):
    a, b = entry.inputs
    wa = a.shape[-1]
    return [
        F.slice_last(grad, 0, wa),
        F.slice_last(grad, wa, wa + b.shape[-1]),
    ]


@vjp("slice_rows")
def _slice_rows_vjp(entry, grad):
    (x,) = entry.inputs
    lo, hi = int(entry.attrs["lo"]), int(entry.attrs["hi"])
    rows = x.shape[-2]
    pieces = grad
    if lo > 0:
        pieces = F.concat_rows(F.zeros_like(F.slice_rows(x, 0, lo)), pieces)
    if hi < rows:
        pieces = F.concat_rows(pieces, F.zeros_like(F.slice_rows(x, hi, rows)))
    return [pieces]


@vjp("concat_rows")
def _concat_rows_vjp(entry, grad):
    a, b = entry.inputs
    ra = a.shape[-2]
    return [
        F.slice_rows(grad, 0, ra),
        F.slice_rows(grad, ra, ra + b.shape[-2]),
    ]


@vjp("gather_rows")
def _gather_rows_vjp(entry, grad):
    table, idx = entry.inputs
    dtable = F.apply_op(
        "scatter_add_rows", [grad, idx], {"shape": table.shape},
        differentiable=False,
    )
    return [dtable, None]


# -- the driver -----------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-mode differentiation from scalar ``loss``.

    Writes ``.grad`` on every reached tensor (and the ``.grad`` of the
    underlying :class:`~repro.ht.tensor.Parameter` when applicable).
    Gradient ops are emitted into the active recording under the
    ``bwd`` scope.
    """
    rec = _rec.current()
    if loss.shape != ():
        raise AutogradError(
            f"backward() needs a scalar loss, got shape {loss.shape}"
        )
    if not loss.requires_grad:
        raise AutogradError("loss does not require grad — nothing to do")
    grads: dict[int, Tensor] = {}
    outer_src = rec.src_override
    with rec.scope("bwd"):
        grads[loss.vid] = F.ones_like(loss)
        try:
            for entry in reversed(rec.tape):
                grad_out = grads.get(entry.output.vid)
                if grad_out is None:
                    continue
                try:
                    fn = VJP[entry.op]
                except KeyError:
                    raise AutogradError(
                        f"op {entry.op!r} has no registered VJP"
                    ) from None
                # the entry's gradient ops, accumulation adds included,
                # are attributed to "<op>_bwd"
                rec.src_override = f"{entry.op}_bwd"
                input_grads = fn(entry, grad_out)
                if len(input_grads) != len(entry.inputs):
                    raise AutogradError(
                        f"VJP of {entry.op!r} returned {len(input_grads)} "
                        f"grads for {len(entry.inputs)} inputs"
                    )
                for tensor, grad_in in zip(entry.inputs, input_grads):
                    if grad_in is None or not tensor.requires_grad:
                        continue
                    if tensor.vid in grads:
                        grads[tensor.vid] = F.add(grads[tensor.vid], grad_in)
                    else:
                        grads[tensor.vid] = grad_in
                    tensor.grad = grads[tensor.vid]
                    if tensor.param is not None:
                        tensor.param.grad = grads[tensor.vid]
        finally:
            rec.src_override = outer_src
