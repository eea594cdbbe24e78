"""Attention variants: the heart of the paper's layer studies.

* :class:`SoftmaxAttention` — the original Vaswani design; its softmax
  lowers entirely onto the TPC and becomes the bottleneck at long
  sequence lengths (Fig 4).
* :class:`LinearAttention` — Katharopoulos et al.'s linearized
  attention with the elu(x)+1 feature map (or the Fig 7 alternatives);
  the associativity trick ``(phi(Q) phi(K)^T) V = phi(Q) (phi(K)^T V)``
  turns almost all work into MME matmuls (~6x, Fig 5).
* :class:`PerformerAttention` — FAVOR random features, following the
  paper's Listing 1 line by line (including ``torch.ones_like`` for the
  normalizer); its exponentials serialize on the TPC (~2x, Fig 6).
* :class:`ChunkedAttention` — the §5 future-work direction: a
  Gaudi-tailored local attention whose softmax cost drops from O(N^2)
  to O(N * window).

All variants share the projection layout of the HuggingFace modules
the paper profiles: reshape to (B, H, N, dh) via view + transpose, so
the TPC pays the permute traffic a real PyTorch program pays.
"""

from __future__ import annotations

import numpy as np

from .. import ht
from ..ht import functional as F
from ..ht.tensor import Parameter, Tensor
from ..util.errors import ConfigError, ShapeError
from ..util.rng import derive, module_rng
from .config import AttentionConfig

_NEG_INF = -1.0e9


def _causal_mask(shape: tuple[int, ...], *, offset: int = 1,
                 name: str = "causal_mask") -> Tensor:
    """Additive mask const: ``_NEG_INF`` from diagonal ``offset`` up.

    Recorded by shape; the dense array is built only in a concrete
    recording (symbolic paper-scale sequences never allocate it).
    """
    return ht.const(
        shape,
        lambda: np.triu(np.full(shape, _NEG_INF, dtype=np.float32), k=offset),
        name=name,
    )


def _split_heads(x: Tensor, num_heads: int, head_dim: int) -> Tensor:
    """(B, N, H*dh) -> (B, H, N, dh) via view + physical transpose."""
    b, n, _ = x.shape
    x = F.reshape(x, (b, n, num_heads, head_dim))
    return F.transpose(x, (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    """(B, H, N, dh) -> (B, N, H*dh)."""
    b, h, n, dh = x.shape
    x = F.transpose(x, (0, 2, 1, 3))
    return F.reshape(x, (b, n, h * dh))


class _AttentionBase(ht.Module):
    """Shared projections + head bookkeeping."""

    def __init__(
        self,
        config: AttentionConfig,
        *,
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "attn",
    ):
        super().__init__()
        self._name = name
        self.config = config
        d = config.d_model
        rng = module_rng(rng, materialize)
        self.wq = ht.Linear(d, d, bias=False, rng=derive(rng, name, "wq"),
                            materialize=materialize, name="wq")
        self.wk = ht.Linear(d, d, bias=False, rng=derive(rng, name, "wk"),
                            materialize=materialize, name="wk")
        self.wv = ht.Linear(d, d, bias=False, rng=derive(rng, name, "wv"),
                            materialize=materialize, name="wv")
        self.wo = ht.Linear(d, d, bias=False, rng=derive(rng, name, "wo"),
                            materialize=materialize, name="wo")

    def _project(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        if x.shape[-1] != self.config.d_model:
            raise ShapeError(
                f"{self._name}: expected width {self.config.d_model}, "
                f"got {x.shape}"
            )
        cfg = self.config
        q = _split_heads(self.wq(x), cfg.num_heads, cfg.head_dim)
        k = _split_heads(self.wk(x), cfg.num_heads, cfg.head_dim)
        v = _split_heads(self.wv(x), cfg.num_heads, cfg.head_dim)
        return q, k, v

    def _finish(self, ctx: Tensor) -> Tensor:
        return self.wo(_merge_heads(ctx))


class SoftmaxAttention(_AttentionBase):
    """softmax(Q K^T / sqrt(d)) V — quadratic in sequence length."""

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        q, k, v = self._project(x)
        scores = F.matmul(q, k, transpose_b=True)
        scores = F.mul_scalar(scores, cfg.head_dim ** -0.5)
        if cfg.causal:
            n = x.shape[1]
            scores = F.add(scores, _causal_mask((1, 1, n, n)))
        probs = F.softmax(scores, axis=-1)
        return self._finish(F.matmul(probs, v))


def _apply_feature_map(x: Tensor, feature_map: str) -> Tensor:
    """Row-wise positive feature map phi for linearized attention."""
    if feature_map == "elu1":
        # Linear Transformer's choice: phi(x) = elu(x) + 1 (positive).
        return F.add_scalar(F.elu(x), 1.0)
    if feature_map == "relu":
        return F.relu(x)
    if feature_map == "leaky_relu":
        return F.leaky_relu(x)
    if feature_map == "gelu":
        return F.gelu(x)
    if feature_map == "glu":
        # Full-width gated map: glu([x, x]) = x * sigmoid(x), keeping the
        # feature dim (and thus the attention matmul sizes) equal to the
        # other variants, as in the paper's Fig 7 sweep. Still routes
        # through the poorly-supported GLU op -> host recompilation.
        return F.glu(F.concat_last(x, x))
    raise ConfigError(f"unknown feature map {feature_map!r}")


class LinearAttention(_AttentionBase):
    """phi(Q) (phi(K)^T V) — linear in sequence length, MME-dominated.

    The normalizer is computed with an explicit ``ones_like`` matmul
    (as in the paper's FAVOR listing) rather than a fused reduction:
    insight #2 of §4 — basic Torch ops map better than abstractions,
    and matmuls are exactly what the MME wants.
    """

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        if cfg.causal:
            raise ConfigError(
                "causal linear attention (RNN-style prefix sums) is not "
                "modeled; the paper profiles the bidirectional form"
            )
        q, k, v = self._project(x)
        with ht.scope("feature_map"):
            qp = _apply_feature_map(q, cfg.feature_map)
            kp = _apply_feature_map(k, cfg.feature_map)
        kv = F.matmul(kp, v, transpose_a=True)           # (B,H,dh',dh)
        raw = F.matmul(qp, kv)                           # (B,H,N,dh)
        ones = F.ones_like(v)
        norm = F.matmul(qp, F.matmul(kp, ones, transpose_a=True))
        # Epsilon guards the all-zero rows non-positive feature maps
        # (relu) can produce; elu+1 never needs it.
        return self._finish(F.div(raw, F.add_scalar(norm, 1e-6)))


class PerformerAttention(_AttentionBase):
    """FAVOR attention, transcribed from the paper's Listing 1."""

    def __init__(
        self,
        config: AttentionConfig,
        *,
        rng: np.random.Generator | None = None,
        materialize: bool = True,
        name: str = "performer",
    ):
        super().__init__(config, rng=rng, materialize=materialize, name=name)
        rng = module_rng(rng, materialize)
        m = config.performer_features
        dh = config.head_dim
        data = None
        if materialize:
            # orthogonal random features (Gram-Schmidt over gaussian draws)
            g = derive(rng, name, "features").normal(size=(dh, m))
            q_mat, _ = np.linalg.qr(g) if dh >= m else (g, None)
            data = (q_mat[:, :m] if dh >= m else g).astype(np.float32)
            data *= np.sqrt(dh)
        self.features = Parameter(
            data, shape=(dh, m), name=f"{name}.features", requires_grad=False,
        )
        self.pre_scale = config.head_dim ** -0.25
        self.offset = -1.0

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        if cfg.causal:
            raise ConfigError("causal FAVOR is not modeled (see Listing 1)")
        q, k, v = self._project(x)
        # --- Listing 1, line by line -------------------------------------
        with ht.scope("favor_q"):
            q_scaled = F.mul_scalar(q, self.pre_scale)
            q_scaled = F.matmul(q_scaled, self.features)
            q_prime = F.exp(F.add_scalar(q_scaled, self.offset))
        with ht.scope("favor_k"):
            k_scaled = F.mul_scalar(k, self.pre_scale)
            k_scaled = F.matmul(k_scaled, self.features)
            k_prime = F.exp(F.add_scalar(k_scaled, self.offset))
        with ht.scope("favor_attn"):
            ones = F.ones_like(v)
            att_norm = F.matmul(
                q_prime, F.matmul(k_prime, ones, transpose_a=True)
            )
            att_raw = F.matmul(q_prime, F.matmul(k_prime, v, transpose_a=True))
            out = F.div(att_raw, att_norm)
        return self._finish(out)


class ChunkedAttention(_AttentionBase):
    """Local (block-diagonal) softmax attention — the §5 extension.

    Queries attend only within their chunk of ``chunk_size`` positions:
    the TPC-bound softmax shrinks from O(N^2) to O(N * chunk) elements
    while the matmuls stay on the MME — a attention layout tailored to
    Gaudi's engine imbalance.
    """

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        b, n, _ = x.shape
        c = cfg.chunk_size
        if n % c != 0:
            raise ShapeError(
                f"sequence length {n} not divisible by chunk size {c}"
            )
        q, k, v = self._project(x)  # (B,H,N,dh)
        h, dh = cfg.num_heads, cfg.head_dim
        shape5 = (b, h, n // c, c, dh)
        q = F.reshape(q, shape5)
        k = F.reshape(k, shape5)
        v = F.reshape(v, shape5)
        scores = F.mul_scalar(
            F.matmul(q, k, transpose_b=True), dh ** -0.5
        )  # (B,H,chunks,c,c)
        if cfg.causal:
            scores = F.add(
                scores, _causal_mask((1, 1, 1, c, c), name="chunk_mask")
            )
        probs = F.softmax(scores, axis=-1)
        ctx = F.reshape(F.matmul(probs, v), (b, h, n, dh))
        return self._finish(ctx)


class PipelinedSoftmaxAttention(_AttentionBase):
    """Query-chunked *exact* softmax attention — the overlap extension.

    Mathematically identical to :class:`SoftmaxAttention` (each query
    chunk still attends over ALL keys), but the computation is emitted
    as per-chunk node sequences: QK^T_i (MME) -> softmax_i (TPC) ->
    A_i V (MME). Under the runtime's in-order-per-engine issue, chunk
    i's softmax overlaps chunk i+1's QK^T — software pipelining that
    directly implements §4's insight #1 ("generate good mapping and
    schedule of MME and TPC") without approximating the attention.
    """

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        n = x.shape[1]
        c = cfg.chunk_size
        if n % c != 0:
            raise ShapeError(
                f"sequence length {n} not divisible by chunk size {c}"
            )
        q, k, v = self._project(x)  # (B,H,N,dh)
        mask = _causal_mask((1, 1, n, n)) if cfg.causal else None

        def chunk_scores(lo: int) -> Tensor:
            q_i = F.slice_rows(q, lo, lo + c)
            s = F.mul_scalar(
                F.matmul(q_i, k, transpose_b=True), cfg.head_dim ** -0.5
            )
            if mask is not None:
                s = F.add(s, F.slice_rows(mask, lo, lo + c))
            return s

        # Software-pipelined emission order: the NEXT chunk's QK^T is
        # issued *before* this chunk's AV, so the in-order MME queue
        # reads QK0, QK1, AV0, QK2, AV1, ... and chunk i's softmax on
        # the TPC hides under chunk i+1's QK^T on the MME. This is the
        # source-level schedule §4's insight #1 asks the programmer to
        # provide.
        out_chunks: Tensor | None = None
        with ht.scope("chunk0"):
            scores = chunk_scores(0)
        for i, lo in enumerate(range(0, n, c)):
            with ht.scope(f"chunk{i}"):
                probs = F.softmax(scores, axis=-1)
            if lo + c < n:
                with ht.scope(f"chunk{i + 1}"):
                    scores = chunk_scores(lo + c)
            with ht.scope(f"chunk{i}"):
                ctx_i = F.matmul(probs, v)
            out_chunks = (
                ctx_i if out_chunks is None
                else F.concat_rows(out_chunks, ctx_i)
            )
        return self._finish(out_chunks)


def build_attention(
    config: AttentionConfig,
    *,
    rng: np.random.Generator | None = None,
    materialize: bool = True,
    name: str = "attn",
) -> _AttentionBase:
    """Factory selecting the variant from ``config.kind``."""
    cls = {
        "softmax": SoftmaxAttention,
        "linear": LinearAttention,
        "performer": PerformerAttention,
        "chunked": ChunkedAttention,
        "pipelined": PipelinedSoftmaxAttention,
    }[config.kind]
    return cls(config, rng=rng, materialize=materialize, name=name)
