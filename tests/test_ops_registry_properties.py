"""Property tests over the whole op registry.

For every registered op: shape inference must agree with functional
compute on random small inputs, work items must be well-formed, and
the Table 1 invariant (only matmul on the MME) must hold structurally.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.costmodel import EngineKind, OpClass
from repro.hw.dtypes import DType
from repro.synapse.ops import _broadcast, op, op_names, work_item_for
from repro.util.errors import ShapeError

# ops needing special argument handling in the generic harness
UNARY_SIMPLE = [
    "neg", "abs", "square", "relu", "ones_like", "zeros_like", "cast",
    "exp", "sigmoid", "tanh", "gelu", "elu", "step_ge0", "leaky_relu",
]
UNARY_POSITIVE = ["sqrt", "rsqrt", "log"]
BINARY_SIMPLE = ["add", "sub", "mul", "maximum", "eq"]
SCALAR_ATTR = {"smul": {"alpha": 2.0}, "sadd": {"alpha": -1.0},
               "spow": {"alpha": 2.0}, "fill": {"value": 3.0},
               "dropout": {"p": 0.5, "seed": 1}}

small_shapes = st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)


def rand(shape, positive=False, seed=0):
    rng = np.random.default_rng(seed + sum(shape))
    arr = rng.normal(size=shape).astype(np.float32)
    return np.abs(arr) + 0.5 if positive else arr


class TestShapeComputeAgreement:
    @pytest.mark.parametrize("name", UNARY_SIMPLE + UNARY_POSITIVE)
    @given(shape=small_shapes)
    @settings(max_examples=15, deadline=None)
    def test_unary(self, name, shape):
        opdef = op(name)
        x = rand(shape, positive=name in UNARY_POSITIVE)
        attrs = {"slope": 0.1} if name == "leaky_relu" else {}
        inferred = opdef.infer_shape([shape], attrs)
        out = opdef.compute([x], attrs)
        assert tuple(np.shape(out)) == inferred

    @pytest.mark.parametrize("name", BINARY_SIMPLE + ["div"])
    @given(shape=small_shapes)
    @settings(max_examples=15, deadline=None)
    def test_binary_same_shape(self, name, shape):
        opdef = op(name)
        x, y = rand(shape, seed=1), rand(shape, positive=name == "div",
                                         seed=2)
        inferred = opdef.infer_shape([shape, shape], {})
        out = opdef.compute([x, y], {})
        assert tuple(np.shape(out)) == inferred

    @pytest.mark.parametrize("name", sorted(SCALAR_ATTR))
    @given(shape=small_shapes)
    @settings(max_examples=10, deadline=None)
    def test_scalar_attr_ops(self, name, shape):
        opdef = op(name)
        attrs = SCALAR_ATTR[name]
        x = rand(shape, positive=name == "spow")
        inferred = opdef.infer_shape([shape], attrs)
        out = opdef.compute([x], attrs)
        assert tuple(np.shape(out)) == inferred

    @given(
        b=st.integers(1, 3), m=st.integers(1, 6),
        k=st.integers(1, 6), n=st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_matmul(self, b, m, k, n):
        opdef = op("matmul")
        a = rand((b, m, k))
        bb = rand((b, k, n))
        inferred = opdef.infer_shape([(b, m, k), (b, k, n)], {})
        out = opdef.compute([a, bb], {})
        assert tuple(out.shape) == inferred == (b, m, n)

    @given(shape=st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple),
           axis=st.integers(-1, 0), keepdims=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_reductions(self, shape, axis, keepdims):
        for name in ("sum", "max", "mean"):
            opdef = op(name)
            attrs = {"axis": axis, "keepdims": keepdims}
            inferred = opdef.infer_shape([shape], attrs)
            out = opdef.compute([rand(shape)], attrs)
            assert tuple(np.shape(out)) == inferred

    @given(shape=st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple))
    @settings(max_examples=15, deadline=None)
    def test_softmax_composites(self, shape):
        for name in ("softmax", "log_softmax"):
            opdef = op(name)
            out = opdef.compute([rand(shape)], {"axis": -1})
            assert tuple(out.shape) == opdef.infer_shape([shape], {"axis": -1})
            if name == "softmax":
                np.testing.assert_allclose(out.sum(-1), 1.0, rtol=1e-5)


#: rank-0..5 shapes over few distinct dims, so pairs often line up
broadcast_shapes = st.lists(
    st.sampled_from((0, 1, 2, 3, 7)), max_size=5
).map(tuple)


def numpy_broadcast(a, b):
    """``np.broadcast_shapes(a, b)`` as a tuple, or None if it raises."""
    try:
        return tuple(np.broadcast_shapes(a, b))
    except ValueError:
        return None


class TestBroadcast:
    """The binary ops' pure-Python broadcast is numpy's, error included."""

    def check(self, a, b):
        expected = numpy_broadcast(a, b)
        if expected is None:
            with pytest.raises(ShapeError, match="not broadcastable"):
                _broadcast(a, b)
        else:
            assert _broadcast(a, b) == expected

    @settings(max_examples=400, deadline=None)
    @given(a=broadcast_shapes, b=broadcast_shapes)
    def test_matches_numpy(self, a, b):
        self.check(a, b)
        self.check(b, a)

    @settings(max_examples=200, deadline=None)
    @given(a=broadcast_shapes, data=st.data())
    def test_matches_numpy_on_broadcastable_pairs(self, a, data):
        """``b`` is ``a`` with a leading prefix dropped and some dims
        set to 1, so numpy always succeeds."""
        drop = data.draw(st.integers(0, len(a)))
        ones = data.draw(st.lists(st.booleans(), min_size=len(a) - drop,
                                  max_size=len(a) - drop))
        b = tuple(1 if one else d for d, one in zip(a[drop:], ones))
        assert numpy_broadcast(a, b) is not None
        self.check(a, b)
        self.check(b, a)


class TestRegistryInvariants:
    def test_every_op_has_callables(self):
        for name in op_names():
            opdef = op(name)
            assert callable(opdef.infer_shape), name
            assert callable(opdef.compute), name

    def test_table1_invariant_structural(self):
        # Table 1 extended by the kernel pack: the MME runs matmul plus
        # the two matmul-shaped attention offloads, and nothing that is
        # not MATMUL-class ever maps to the MME.
        mme_ops = [n for n in op_names()
                   if op(n).engine is EngineKind.MME]
        assert mme_ops == ["exp_basis_mm", "flash_attention", "matmul"]
        for name in mme_ops:
            assert op(name).op_class is OpClass.MATMUL, name

    def test_special_ops_declare_their_function(self):
        for name in op_names():
            opdef = op(name)
            if opdef.op_class is OpClass.SPECIAL:
                assert opdef.special_fn, name

    def test_composites_are_exactly_the_lowered_set(self):
        from repro.synapse.lowering import LOWERINGS

        composites = {n for n in op_names() if op(n).composite}
        assert composites == set(LOWERINGS)

    def test_view_ops_move_no_bytes(self):
        for name in ("reshape", "broadcast_to", "slice_rows"):
            opdef = op(name)
            assert not opdef.reads_inputs and not opdef.writes_output, name

    @given(shape=small_shapes)
    @settings(max_examples=10, deadline=None)
    def test_work_items_well_formed(self, shape):
        for name in UNARY_SIMPLE:
            item = work_item_for(name, [shape], shape, DType.BF16, {})
            assert item.flops >= 0
            assert item.bytes_read >= 0 and item.bytes_written >= 0
            assert item.elements == math.prod(shape)

    def test_work_item_dtype_scales_bytes(self):
        a = work_item_for("add", [(8,), (8,)], (8,), DType.BF16, {})
        b = work_item_for("add", [(8,), (8,)], (8,), DType.FP32, {})
        assert b.bytes_total == 2 * a.bytes_total
