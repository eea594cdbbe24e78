"""Unit tests for the synapse graph IR and op registry (Table 1)."""

import numpy as np
import pytest

from repro.hw.costmodel import EngineKind, OpClass
from repro.hw.dtypes import DType
from repro.synapse import (
    Graph,
    GraphCompiler,
    engine_for,
    matmul_spec,
    op,
    op_names,
    work_item_for,
)
from repro.synapse.passes import pass_cache_stats, reset_pass_cache
from repro.synapse.recipe import RecipeCache
from repro.util.errors import GraphError, ShapeError


class TestGraphConstruction:
    def make_graph(self):
        g = Graph("t")
        x = g.add_value((2, 3), DType.BF16, name="x", kind="input")
        y = g.add_value((2, 3), DType.BF16)
        g.add_node("relu", [x.vid], y)
        return g, x, y

    def test_basic(self):
        g, x, y = self.make_graph()
        assert len(g) == 1
        g.validate()
        assert g.producer(y.vid).op == "relu"
        assert g.producer(x.vid) is None

    def test_value_properties(self):
        g = Graph()
        v = g.add_value((4, 5), DType.BF16)
        assert v.numel == 20
        assert v.nbytes == 40  # bf16 = 2 bytes

    def test_scalar_value(self):
        g = Graph()
        v = g.add_value((), DType.FP32)
        assert v.numel == 1 and v.nbytes == 4

    # Construction only appends; each check below fires where a built
    # graph is checked: Graph.validate and the compiler's validate pass.

    @staticmethod
    def assert_rejected(g, error, match):
        with pytest.raises(error, match=match):
            g.validate()
        with pytest.raises(error, match=match):
            GraphCompiler(cache=RecipeCache()).compile(g)

    def make_relu(self, shape):
        g = Graph("t")
        x = g.add_value(shape, DType.BF16, name="x", kind="input")
        y = g.add_value(shape, DType.BF16, name="y")
        g.add_node("relu", [x.vid], y)
        return g

    def test_unknown_input_rejected(self):
        g = Graph()
        out = g.add_value((2,), DType.BF16)
        g.add_node("relu", [999], out)
        self.assert_rejected(g, GraphError, "consumes unknown value 999")

    def test_double_producer_rejected(self):
        g, x, y = self.make_graph()
        g.add_node("relu", [x.vid], y)
        self.assert_rejected(g, GraphError, "already has a producer")

    def test_unregistered_output_rejected(self):
        g, x, _ = self.make_graph()
        stray = Graph().add_value((2, 3), DType.BF16)
        stray.vid = 99
        g.add_node("relu", [x.vid], stray)
        self.assert_rejected(g, GraphError, "produces unregistered value 99")

    def test_rank_above_five_rejected(self):
        g = self.make_relu((1,) * 6)
        self.assert_rejected(g, ShapeError, "x: rank 6 exceeds")

    def test_negative_dimension_rejected(self):
        g = self.make_relu((2, -3))
        self.assert_rejected(g, ShapeError, "x: dimensions must be non-negative")

    def test_bool_dimension_rejected(self):
        g = self.make_relu((2, 3))
        g.add_value((True, 3), DType.BF16, name="flag")
        self.assert_rejected(g, ShapeError, "flag: dimensions must be")

    def test_shape_check_survives_a_structural_replay(self):
        """The validate pass replays SSA and order for a graph whose
        structure it has seen; the shapes are still checked."""
        reset_pass_cache()
        GraphCompiler(cache=RecipeCache()).compile(self.make_relu((2, 3)))
        hits = pass_cache_stats()["hits"]
        bad = self.make_relu((-2, 3))
        with pytest.raises(ShapeError, match="non-negative"):
            GraphCompiler(cache=RecipeCache()).compile(bad)
        assert pass_cache_stats()["hits"] == hits + 1  # validate replayed

    def test_bad_kind_rejected(self):
        with pytest.raises(GraphError, match="kind"):
            Graph().add_value((2,), DType.BF16, kind="banana")

    def test_graph_inputs_and_parameters(self):
        g = Graph()
        w = g.add_value((3, 3), DType.BF16, kind="param")
        x = g.add_value((1, 3), DType.BF16, kind="input")
        out = g.add_value((1, 3), DType.BF16)
        g.add_node("matmul", [x.vid, w.vid], out)
        assert {v.vid for v in g.graph_inputs()} == {w.vid, x.vid}
        assert [v.vid for v in g.parameters()] == [w.vid]

    def test_consumers(self):
        g, x, y = self.make_graph()
        z = g.add_value((2, 3), DType.BF16)
        g.add_node("exp", [y.vid], z)
        cons = g.consumers()
        assert [n.op for n in cons[y.vid]] == ["exp"]

    def test_validate_catches_out_of_order_use(self):
        g = Graph()
        a = g.add_value((2,), DType.BF16)  # activation with no producer
        out = g.add_value((2,), DType.BF16)
        g.add_node("relu", [a.vid], out)
        with pytest.raises(GraphError, match="before it is produced"):
            g.validate()


class TestTable1Mapping:
    """The paper's Table 1: op -> engine mapping via SynapseAI."""

    def test_only_matmul_shaped_work_on_mme(self):
        # Table 1 extended by the attention kernel pack: besides matmul
        # itself, only the matmul-shaped offloads (exp-as-matmul, flash
        # tile GEMMs) reach the MME; everything else is TPC or NIC.
        mme = ("matmul", "exp_basis_mm", "flash_attention")
        for name in mme:
            assert engine_for(name) is EngineKind.MME, name
        collectives = (
            "all_reduce", "all_gather", "broadcast", "reduce_scatter",
            "send", "recv",
        )
        for name in op_names():
            if name in mme:
                continue
            if name in collectives:
                assert engine_for(name) is EngineKind.NIC, name
            else:
                assert engine_for(name) is EngineKind.TPC, name

    @pytest.mark.parametrize(
        "name",
        ["mul", "square", "spow", "add", "sub", "smul", "sadd", "sqrt", "log"],
    )
    def test_table1_rows_are_tpc(self, name):
        # The exact rows of Table 1.
        assert engine_for(name) is EngineKind.TPC

    def test_unknown_op(self):
        with pytest.raises(GraphError, match="unknown op"):
            op("torch.compile")


class TestMatmulSpec:
    def test_plain_2d(self):
        out, dims = matmul_spec((3, 4), (4, 5), {})
        assert out == (3, 5)
        assert (dims.batch, dims.m, dims.n, dims.k) == (1, 3, 5, 4)

    def test_batched_broadcast(self):
        out, dims = matmul_spec((8, 1, 16, 32), (6, 32, 64), {})
        assert out == (8, 6, 16, 64)
        assert dims.batch == 48

    def test_transpose_b(self):
        out, dims = matmul_spec((2, 16, 32), (2, 64, 32), {"transpose_b": True})
        assert out == (2, 16, 64)
        assert dims.k == 32

    def test_transpose_a(self):
        out, _ = matmul_spec((2, 32, 16), (2, 32, 64), {"transpose_a": True})
        assert out == (2, 16, 64)

    def test_contraction_mismatch(self):
        with pytest.raises(ShapeError, match="contraction"):
            matmul_spec((2, 3), (4, 5), {})

    def test_rank1_rejected(self):
        with pytest.raises(ShapeError, match="rank"):
            matmul_spec((3,), (3, 4), {})


class TestShapeInference:
    def test_broadcast_binary(self):
        assert op("add").infer_shape([(4, 1, 3), (5, 1)], {}) == (4, 5, 3)

    def test_broadcast_incompatible(self):
        with pytest.raises(ShapeError):
            op("add").infer_shape([(3,), (4,)], {})

    def test_reduce_axis_keepdims(self):
        assert op("sum").infer_shape([(2, 3, 4)], {"axis": -1, "keepdims": True}) \
            == (2, 3, 1)
        assert op("sum").infer_shape([(2, 3, 4)], {"axis": 1}) == (2, 4)
        assert op("max").infer_shape([(2, 3)], {}) == ()

    def test_transpose(self):
        assert op("transpose").infer_shape([(2, 3, 4)], {"axes": (0, 2, 1)}) \
            == (2, 4, 3)
        assert op("transpose").infer_shape([(2, 3)], {}) == (3, 2)
        with pytest.raises(ShapeError):
            op("transpose").infer_shape([(2, 3)], {"axes": (0, 0)})

    def test_reshape(self):
        assert op("reshape").infer_shape([(2, 6)], {"shape": (3, 4)}) == (3, 4)
        with pytest.raises(ShapeError):
            op("reshape").infer_shape([(2, 6)], {"shape": (5,)})

    def test_glu_halves_last_dim(self):
        assert op("glu").infer_shape([(4, 10)], {}) == (4, 5)
        with pytest.raises(ShapeError):
            op("glu").infer_shape([(4, 9)], {})

    def test_gather_rows(self):
        assert op("gather_rows").infer_shape([(100, 16), (4, 7)], {}) == (4, 7, 16)


class TestCompute:
    """Functional semantics of representative ops."""

    def test_matmul_with_transpose(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3, 4)).astype(np.float32)
        b = rng.normal(size=(2, 5, 4)).astype(np.float32)
        out = op("matmul").compute([a, b], {"transpose_b": True})
        np.testing.assert_allclose(out, a @ b.swapaxes(-1, -2), rtol=1e-6)

    def test_softmax_compute(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        out = op("softmax").compute([x], {"axis": -1})
        np.testing.assert_allclose(out.sum(-1), 1.0, rtol=1e-6)

    def test_log_softmax_consistent_with_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 9)).astype(np.float32)
        ls = op("log_softmax").compute([x], {"axis": -1})
        s = op("softmax").compute([x], {"axis": -1})
        np.testing.assert_allclose(np.exp(ls), s, rtol=1e-5)

    def test_elu(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        out = op("elu").compute([x], {})
        np.testing.assert_allclose(out, [np.expm1(-1.0), 0.0, 2.0], rtol=1e-6)

    def test_scalar_ops(self):
        x = np.ones(3, dtype=np.float32)
        np.testing.assert_allclose(op("smul").compute([x], {"alpha": 2.5}), 2.5)
        np.testing.assert_allclose(op("sadd").compute([x], {"alpha": -1.0}), 0.0)
        np.testing.assert_allclose(op("spow").compute([x * 2], {"alpha": 3}), 8.0)

    def test_gather_scatter_round_trip(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        idx = np.array([1, 3, 1])
        gathered = op("gather_rows").compute([table, idx], {})
        assert gathered.shape == (3, 3)
        grad = np.ones_like(gathered)
        scattered = op("scatter_add_rows").compute(
            [grad, idx], {"shape": (4, 3)}
        )
        np.testing.assert_allclose(scattered[1], 2.0)  # row 1 hit twice
        np.testing.assert_allclose(scattered[0], 0.0)

    def test_glu_compute(self):
        x = np.array([[2.0, 0.0]], dtype=np.float32)
        out = op("glu").compute([x], {})
        np.testing.assert_allclose(out, [[1.0]])  # 2 * sigmoid(0)


class TestWorkItems:
    def test_matmul_item(self):
        item = work_item_for(
            "matmul", [(2, 8, 4), (2, 4, 16)], (2, 8, 16), DType.BF16, {}
        )
        assert item.op_class is OpClass.MATMUL
        assert item.matmul.flops == 2 * 2 * 8 * 16 * 4
        assert item.bytes_read == (2 * 8 * 4 + 2 * 4 * 16) * 2

    def test_elementwise_item(self):
        item = work_item_for("add", [(8,), (8,)], (8,), DType.BF16, {})
        assert item.op_class is OpClass.ELEMENTWISE
        assert item.flops == 8
        assert item.bytes_total == 3 * 8 * 2

    def test_special_item_carries_fn(self):
        item = work_item_for("exp", [(100,)], (100,), DType.BF16, {})
        assert item.op_class is OpClass.SPECIAL
        assert item.special_fn == "exp"
        assert item.elements == 100

    def test_reduction_counts_input_elements(self):
        item = work_item_for("sum", [(10, 20)], (10,), DType.BF16, {"axis": -1})
        assert item.op_class is OpClass.REDUCTION
        assert item.flops == 200

    def test_reshape_is_free(self):
        item = work_item_for("reshape", [(4, 4)], (16,), DType.BF16,
                             {"shape": (16,)})
        assert item.bytes_total == 0

    def test_transpose_pays_traffic(self):
        item = work_item_for("transpose", [(4, 4)], (4, 4), DType.BF16, {})
        assert item.bytes_total == 2 * 16 * 2
