"""Autoregressive text generation with the GPT analog (concrete mode).

A usability feature beyond the paper: once a tiny GPT has been trained
on the synthetic corpus, :func:`generate` produces continuations
greedily or with temperature sampling.

Decoding is KV-cached by default: the prompt is prefilled once (one
full forward that also captures every layer's keys/values), and each
subsequent token runs only its *marginal* work — embed one token,
attend against the cached K/V, append the new entries. Per-token cost
is O(context) instead of the O(context^2) full-window re-forward the
naive loop pays, so a T-token continuation costs O(T^2) total work
instead of O(T^3)-ish; ``examples/generate_text.py`` measures the
per-token speedup. ``use_cache=False`` (or a model the cached path
cannot serve exactly — non-softmax attention, live dropout) falls back
to the full re-forward loop, which is also what runs once the context
slides past ``max_seq_len`` and cached positions are no longer valid.
"""

from __future__ import annotations

import numpy as np

from .. import ht
from ..ht import functional as F
from ..util.errors import DataError
from ..util.rng import make_rng
from .attention import _causal_mask
from .gpt import GPT2LMHeadModel


def _sample(logits: np.ndarray, temperature: float,
            rng: np.random.Generator) -> int:
    if temperature == 0.0:
        return int(np.argmax(logits))
    scaled = (logits - logits.max()) / temperature
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))


def _supports_cached_decode(model: GPT2LMHeadModel) -> bool:
    """Whether the incremental path reproduces the full forward exactly.

    The cached step computes the last position's attention row against
    stored K/V — identical math to causal softmax attention's final
    row. Other attention kinds (linear/Performer normalizers span the
    whole sequence) and live dropout (fresh mask per call) have no such
    per-position decomposition, so they take the full-forward path.
    """
    attn = model.config.layer.attention
    return (
        attn.kind == "softmax"
        and attn.causal
        and model.config.layer.dropout_p == 0.0
    )


def _attend(attn, x, k_cache: np.ndarray | None, v_cache: np.ndarray | None,
            mask) -> tuple:
    """Softmax attention over ``x`` plus any cached K/V.

    ``x`` is the (1, n, D) attention input (post-norm for pre-norm
    layers); the caches are (1, H, T, dh) numpy arrays or ``None``.
    Returns ``(attn_out, k_all, v_all)`` where the K/V cover cache +
    new positions — the caller's next cache state.
    """
    scale = attn.config.head_dim ** -0.5
    q, k_new, v_new = attn._project(x)
    k_all = k_new.numpy()
    v_all = v_new.numpy()
    if k_cache is not None:
        k_all = np.concatenate([k_cache, k_all], axis=2)
        v_all = np.concatenate([v_cache, v_all], axis=2)
    k_t = ht.const(k_all.shape, lambda: k_all, name="k_cache")
    v_t = ht.const(v_all.shape, lambda: v_all, name="v_cache")
    scores = F.mul_scalar(F.matmul(q, k_t, transpose_b=True), scale)
    if mask is not None:
        scores = F.add(scores, mask)
    probs = F.softmax(scores, axis=-1)
    out = attn._finish(F.matmul(probs, v_t))
    return out, k_all, v_all


def _forward_incremental(
    model: GPT2LMHeadModel,
    token_ids: list[int],
    first_position: int,
    caches: list[tuple[np.ndarray, np.ndarray]] | None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Run ``token_ids`` (at absolute positions starting at
    ``first_position``) through the model on top of ``caches``.

    One call serves both phases: prefill (``caches is None``, many
    tokens) and decode (one token against the populated caches). The
    layer walk mirrors :class:`~repro.models.transformer.TransformerLayer`
    op for op — same functional calls, so concrete values match the
    full forward exactly — while capturing each layer's K/V. Returns
    the last position's logits and the updated caches.
    """
    n = len(token_ids)
    with ht.record("generate-step-cached", mode="concrete"):
        ids_t = ht.tensor(np.asarray([token_ids]))
        pos = np.arange(first_position, first_position + n).reshape(1, n)
        positions = ht.const(pos.shape, lambda: pos, name="positions")
        h = F.add(model.tok_embed(ids_t), model.pos_embed(positions))
        # New positions may only attend to cache + earlier new tokens;
        # with a single new token the row is all-visible and needs no
        # mask (the full forward's mask row is all zeros there too).
        mask = None
        if n > 1:
            past = 0 if caches is None else caches[0][0].shape[2]
            mask = _causal_mask((1, 1, n, past + n), offset=past + 1)
        new_caches: list[tuple[np.ndarray, np.ndarray]] = []
        for i, layer in enumerate(model.decoder.layers):
            k_cache, v_cache = (None, None) if caches is None else caches[i]
            if layer.config.pre_norm:
                attn_out, k_all, v_all = _attend(
                    layer.attn, layer.ln1(h), k_cache, v_cache, mask
                )
                h = F.add(h, attn_out)
                if layer.ffn is not None:
                    h = F.add(h, layer.ffn(layer.ln2(h)))
            else:
                attn_out, k_all, v_all = _attend(
                    layer.attn, h, k_cache, v_cache, mask
                )
                h = layer.ln1(F.add(h, attn_out))
                if layer.ffn is not None:
                    h = layer.ln2(F.add(h, layer.ffn(h)))
            new_caches.append((k_all, v_all))
        logits = model.lm_head(model.ln_final(h))
        last = logits.numpy()[0, -1]
    return last, new_caches


def _forward_full(model: GPT2LMHeadModel, context: list[int]) -> np.ndarray:
    """One full-window forward; returns the last position's logits."""
    with ht.record("generate-step", mode="concrete"):
        logits = model(ht.tensor(np.asarray([context])))
        return logits.numpy()[0, -1]


def generate(
    model: GPT2LMHeadModel,
    prompt_ids: list[int] | np.ndarray,
    *,
    max_new_tokens: int = 16,
    temperature: float = 0.0,
    rng: np.random.Generator | None = None,
    use_cache: bool = True,
) -> list[int]:
    """Continue ``prompt_ids`` by ``max_new_tokens`` tokens.

    ``temperature == 0`` decodes greedily; otherwise softmax sampling.
    The context window is the model's ``max_seq_len`` (older tokens
    slide out). Requires a materialized (concrete) model.

    ``use_cache`` (default) decodes through a per-layer KV cache —
    prefill once, then O(context) marginal work per token; the cached
    and uncached paths compute identical values. The cache only
    applies while absolute positions fit ``max_seq_len``; once the
    window slides, positions shift and every step re-forwards the
    window (the uncached behaviour).
    """
    if max_new_tokens < 0:
        raise DataError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
    if temperature < 0:
        raise DataError(f"temperature must be >= 0, got {temperature}")
    ids = [int(t) for t in np.asarray(prompt_ids).reshape(-1)]
    if not ids:
        raise DataError("prompt must contain at least one token")
    vocab = model.config.vocab_size
    if any(not 0 <= t < vocab for t in ids):
        raise DataError("prompt token id out of vocabulary range")
    rng = rng or make_rng()
    window = model.config.max_seq_len
    cached = use_cache and _supports_cached_decode(model)
    caches: list[tuple[np.ndarray, np.ndarray]] | None = None
    for _ in range(max_new_tokens):
        if not cached or len(ids) > window:
            # uncached, or the window slid: full re-forward (positions
            # of retained tokens changed, so the cache cannot continue)
            last = _forward_full(model, ids[-window:])
        elif caches is None:
            last, caches = _forward_incremental(model, ids, 0, caches)
        else:
            last, caches = _forward_incremental(
                model, ids[-1:], len(ids) - 1, caches
            )
        ids.append(_sample(last, temperature, rng))
    return ids


def perplexity(
    model: GPT2LMHeadModel, token_ids: np.ndarray
) -> float:
    """Per-token perplexity of ``token_ids`` (a (B, N) int array)."""
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2 or token_ids.shape[1] < 2:
        raise DataError("token_ids must be (B, N >= 2)")
    with ht.record("perplexity", mode="concrete"):
        logits = model(ht.tensor(token_ids)).numpy()
    shifted_logits = logits[:, :-1]
    targets = token_ids[:, 1:]
    m = shifted_logits.max(-1, keepdims=True)
    logp = shifted_logits - m - np.log(
        np.exp(shifted_logits - m).sum(-1, keepdims=True)
    )
    rows, cols = np.indices(targets.shape)
    nll = -logp[rows, cols, targets].mean()
    return float(np.exp(nll))
