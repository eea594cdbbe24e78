"""Edge-path coverage for the ht frontend: recorder, init, helpers."""

import numpy as np
import pytest

from repro import ht
from repro.ht import functional as F
from repro.ht import init as I
from repro.hw.dtypes import DType
from repro.util.errors import GraphError, ShapeError


class TestRecorderEdges:
    def test_scope_outside_recording_raises(self):
        with pytest.raises(GraphError, match="no active recording"):
            with ht.scope("x"):
                pass

    def test_has_active(self):
        assert not ht.has_active()
        with ht.record():
            assert ht.has_active()
        assert not ht.has_active()

    def test_current_outside_raises(self):
        with pytest.raises(GraphError):
            ht.current()

    def test_recorder_survives_exception(self):
        with pytest.raises(RuntimeError):
            with ht.record():
                raise RuntimeError("boom")
        assert not ht.has_active()

    def test_src_override_round_trips(self):
        with ht.record() as rec:
            assert rec.src_override is None
            x = ht.tensor([1.0], requires_grad=True)
            F.mean(F.exp(x)).backward()
            assert rec.src_override is None  # restored after backward


class TestInit:
    def test_zeros_ones(self):
        z = I.zeros((3, 3), name="z")
        o = I.ones((3,), name="o")
        np.testing.assert_array_equal(z.data, 0.0)
        np.testing.assert_array_equal(o.data, 1.0)

    def test_normal_std(self):
        rng = np.random.default_rng(0)
        p = I.normal((2000,), std=0.5, rng=rng)
        assert abs(p.data.std() - 0.5) < 0.05
        assert abs(p.data.mean()) < 0.05

    def test_xavier_bounds(self):
        rng = np.random.default_rng(1)
        p = I.xavier_uniform((100, 50), rng=rng)
        bound = np.sqrt(6.0 / 150)
        assert p.data.max() <= bound + 1e-6
        assert p.data.min() >= -bound - 1e-6

    @pytest.mark.parametrize("factory", [I.zeros, I.ones, I.normal,
                                         I.xavier_uniform])
    def test_materialize_false(self, factory):
        p = factory((4, 4), materialize=False)
        assert p.data is None
        assert p.shape == (4, 4)

    def test_dtype_plumbs(self):
        p = I.zeros((2,), dtype=DType.FP32)
        assert p.dtype is DType.FP32
        assert p.data.dtype == np.float32


class TestTensorEdges:
    def test_input_tensor_shape_mismatch(self):
        with ht.record():
            with pytest.raises(ShapeError, match="shape"):
                ht.input_tensor((2, 2), data=np.zeros((3, 3)))

    def test_randn_scale_and_seed(self):
        rng = np.random.default_rng(2)
        with ht.record():
            t = ht.randn(1000, rng=rng, scale=3.0)
            assert abs(t.numpy().std() - 3.0) < 0.4

    def test_ensure_tensor_rejects_arrays(self):
        from repro.ht.tensor import ensure_tensor

        with ht.record():
            with pytest.raises(GraphError, match="wrap raw arrays"):
                ensure_tensor(np.zeros(3))

    def test_tensor_kind_recorded(self):
        with ht.record() as rec:
            t = ht.const((1,), lambda: [1.0], name="c")
        assert rec.graph.value(t.vid).kind == "const"

    def test_repr_modes(self):
        with ht.record():
            t = ht.tensor([1.0])
            assert "concrete" in repr(t)
        with ht.record(mode="symbolic"):
            s = ht.input_tensor((2,))
            assert "symbolic" in repr(s)

    def test_parameter_repr_and_numel(self):
        p = ht.Parameter(np.zeros((3, 4)), name="w")
        assert "w" in repr(p)
        assert p.numel == 12


class TestModuleEdges:
    def test_set_name_changes_scope(self):
        lin = ht.Linear(2, 2).set_name("projector")
        with ht.record() as rec:
            lin(ht.randn(1, 2))
        assert any("projector" in n.scope for n in rec.graph.nodes)

    def test_module_outside_recording_fails_fast(self):
        lin = ht.Linear(2, 2)
        # without an active recording there are no Tensors to pass;
        # any call fails before touching device state
        with pytest.raises((GraphError, AttributeError)):
            lin(None)

    def test_named_parameters_over_plain_lists(self):
        class Holder(ht.Module):
            def __init__(self):
                super().__init__()
                self.items = [ht.Parameter(np.zeros((2,)), name="a"),
                              ht.Linear(2, 2, name="fc")]

            def forward(self, x):
                return x

        names = [n for n, _ in Holder().named_parameters()]
        assert "items.0" in names
        assert "items.1.weight" in names

    def test_adamlike_zero_grad(self):
        model = ht.Linear(2, 2)
        opt = ht.AdamLike(model.parameters())
        with ht.record():
            loss = F.mean(F.square(model(ht.randn(2, 2))))
            loss.backward()
        assert model.weight.grad is not None
        opt.zero_grad()
        assert model.weight.grad is None
