"""Tensors and parameters of the ``ht`` frontend.

A :class:`Tensor` pairs a symbolic graph value (always present) with an
optional numpy payload (concrete mode only). Operators delegate to
:mod:`repro.ht.functional`, so ``q @ k.transpose(-2, -1)`` records the
same graph SynapseAI would see from the equivalent PyTorch line.

A :class:`Parameter` is graph-independent: it holds shape/dtype (+ data
in concrete use) and is registered into whichever graph is recording
when it is first used — so one model instance can be profiled under
many recordings.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..hw.dtypes import DType, numpy_dtype
from ..synapse.graph import TensorValue
from ..util.errors import GraphError, ShapeError
from . import recorder as _rec

Shape = tuple[int, ...]


class Parameter:
    """A trainable weight, registered into graphs on first use."""

    def __init__(
        self,
        data: np.ndarray | None = None,
        *,
        shape: Shape | None = None,
        dtype: DType = DType.BF16,
        name: str = "",
        requires_grad: bool = True,
    ):
        if data is None and shape is None:
            raise ShapeError("Parameter needs data or an explicit shape")
        if data is not None:
            data = np.asarray(data, dtype=numpy_dtype(dtype))
            if shape is not None and tuple(shape) != data.shape:
                raise ShapeError(
                    f"Parameter shape {shape} != data shape {data.shape}"
                )
            shape = data.shape
        self.data = data
        self.shape = tuple(shape)
        self.dtype = dtype
        self.name = name
        self.requires_grad = requires_grad
        #: set by backward(): the gradient Tensor in the current graph
        self.grad: "Tensor | None" = None

    @property
    def numel(self) -> int:
        """Number of elements."""
        n = 1
        for d in self.shape:
            n *= d
        return n

    def as_tensor(self) -> "Tensor":
        """This parameter, bound to the current recording."""
        rec = _rec.current()
        value = rec.value_for_param(self)
        if rec.concrete and self.data is None:
            raise GraphError(
                f"parameter {self.name!r} has no data but the recording "
                "is concrete; materialize it or record symbolically"
            )
        return Tensor(
            value,
            self.data if rec.concrete else None,
            requires_grad=self.requires_grad,
            param=self,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name!r}, shape={self.shape})"


class Tensor:
    """A recorded tensor: symbolic value + optional numpy data."""

    def __init__(
        self,
        value: TensorValue,
        data: np.ndarray | None = None,
        *,
        requires_grad: bool = False,
        param: Parameter | None = None,
    ):
        self.value = value
        self.data = data
        self.requires_grad = requires_grad
        self.param = param
        self.grad: "Tensor | None" = None

    # -- metadata ------------------------------------------------------------

    @property
    def shape(self) -> Shape:
        """Symbolic shape."""
        return self.value.shape

    @property
    def ndim(self) -> int:
        """Rank."""
        return len(self.value.shape)

    @property
    def dtype(self) -> DType:
        """Device dtype."""
        return self.value.dtype

    @property
    def vid(self) -> int:
        """Graph value id (unique per recording)."""
        return self.value.vid

    @property
    def numel(self) -> int:
        """Number of elements."""
        return self.value.numel

    def numpy(self) -> np.ndarray:
        """The concrete payload; errors on symbolic tensors."""
        if self.data is None:
            raise GraphError(
                f"tensor {self.value.name or self.vid} is symbolic — "
                "record in concrete mode to get values"
            )
        return self.data

    def item(self) -> float:
        """Python scalar of a 1-element concrete tensor."""
        arr = self.numpy()
        if arr.size != 1:
            raise ShapeError(f"item() on tensor with {arr.size} elements")
        return float(arr.reshape(())[()])

    # -- operators (delegate to functional) -----------------------------------

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from . import functional as F

        return F.matmul(self, other)

    def __add__(self, other: "Tensor | float | int") -> "Tensor":
        from . import functional as F

        if isinstance(other, (int, float)):
            return F.add_scalar(self, float(other))
        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other: "Tensor | float | int") -> "Tensor":
        from . import functional as F

        if isinstance(other, (int, float)):
            return F.add_scalar(self, -float(other))
        return F.sub(self, other)

    def __rsub__(self, other: "float | int") -> "Tensor":
        from . import functional as F

        return F.add_scalar(F.neg(self), float(other))

    def __mul__(self, other: "Tensor | float | int") -> "Tensor":
        from . import functional as F

        if isinstance(other, (int, float)):
            return F.mul_scalar(self, float(other))
        return F.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | int") -> "Tensor":
        from . import functional as F

        if isinstance(other, (int, float)):
            return F.mul_scalar(self, 1.0 / float(other))
        return F.div(self, other)

    def __neg__(self) -> "Tensor":
        from . import functional as F

        return F.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from . import functional as F

        return F.pow_scalar(self, float(exponent))

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        """Reshape (a view; free on device)."""
        from . import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, tuple(shape))

    def transpose(self, dim0: int, dim1: int) -> "Tensor":
        """Swap two dims (torch-style ``tensor.transpose(-2, -1)``)."""
        from . import functional as F

        axes = list(range(self.ndim))
        axes[dim0], axes[dim1] = axes[dim1], axes[dim0]
        return F.transpose(self, tuple(axes))

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Sum reduction."""
        from . import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Mean reduction."""
        from . import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Max reduction."""
        from . import functional as F

        return F.max(self, axis=axis, keepdims=keepdims)

    # -- autograd ---------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode differentiation from this scalar."""
        from .autograd import backward

        backward(self)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "concrete" if self.data is not None else "symbolic"
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, {kind})"


# -- creation helpers -----------------------------------------------------------


def tensor(
    data: "np.ndarray | list | float",
    *,
    dtype: DType = DType.BF16,
    requires_grad: bool = False,
    name: str = "",
) -> Tensor:
    """Create a concrete input tensor from array-like data."""
    rec = _rec.current()
    arr = np.asarray(data, dtype=numpy_dtype(dtype))
    value = rec.graph.add_value(arr.shape, dtype, name=name, kind="input")
    return Tensor(
        value, arr if rec.concrete else None, requires_grad=requires_grad
    )


def const(
    shape: Shape,
    make: Callable[[], "np.ndarray"],
    *,
    dtype: DType = DType.BF16,
    name: str = "",
) -> Tensor:
    """A ``kind="const"`` value recorded from its shape alone.

    ``make()`` builds the data and runs only in a concrete recording, so
    a symbolic recording of an (n, n) causal mask costs no O(n^2)
    memory. Raises :class:`~repro.util.errors.ShapeError` when the
    array ``make()`` returns does not have ``shape``.
    """
    rec = _rec.current()
    shape = tuple(shape)
    data = None
    if rec.concrete:
        data = np.asarray(make(), dtype=numpy_dtype(dtype))
        if data.shape != shape:
            raise ShapeError(
                f"const {name!r}: make() returned shape {data.shape}, "
                f"declared {shape}"
            )
    value = rec.graph.add_value(shape, dtype, name=name, kind="const")
    return Tensor(value, data)


def input_tensor(
    shape: Shape,
    *,
    dtype: DType = DType.BF16,
    data: np.ndarray | None = None,
    requires_grad: bool = False,
    name: str = "",
) -> Tensor:
    """Create a graph input; symbolic recordings may omit ``data``."""
    rec = _rec.current()
    if rec.concrete and data is None:
        raise GraphError(
            f"input {name!r} needs data in a concrete recording"
        )
    if data is not None:
        data = np.asarray(data, dtype=numpy_dtype(dtype))
        if tuple(data.shape) != tuple(shape):
            raise ShapeError(f"input data shape {data.shape} != {tuple(shape)}")
    value = rec.graph.add_value(tuple(shape), dtype, name=name, kind="input")
    return Tensor(
        value, data if rec.concrete else None, requires_grad=requires_grad
    )


def randn(
    *shape: int,
    rng: np.random.Generator | None = None,
    dtype: DType = DType.BF16,
    requires_grad: bool = False,
    scale: float = 1.0,
    name: str = "",
) -> Tensor:
    """A concrete standard-normal input tensor (testing convenience)."""
    from ..util.rng import make_rng

    rng = rng or make_rng()
    data = rng.normal(scale=scale, size=shape)
    return tensor(data, dtype=dtype, requires_grad=requires_grad, name=name)


def ensure_tensor(x: "Tensor | Parameter | Any") -> Tensor:
    """Coerce operands: Parameters bind to the current recording."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Parameter):
        return x.as_tensor()
    raise GraphError(
        f"expected Tensor or Parameter, got {type(x).__name__}; wrap "
        "raw arrays with ht.tensor(...)"
    )
