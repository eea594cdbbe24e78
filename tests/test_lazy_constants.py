"""Lazy constants: ``ht.const`` records a shape, not data.

A symbolic recording never calls a constant's ``make()``, so the causal
masks of paper-scale sequence lengths cost no O(n^2) memory; a concrete
recording builds exactly the array the eager ``np.triu(np.full(...))``
construction built.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import ht
from repro.core.e2e_llm import record_training_step
from repro.models import GPT2LMHeadModel, tiny_gpt_config
from repro.models.attention import (
    ChunkedAttention,
    PipelinedSoftmaxAttention,
    SoftmaxAttention,
)
from repro.models.config import AttentionConfig
from repro.models.generation import _forward_incremental
from repro.util.errors import ShapeError

_NEG_INF = -1.0e9

#: traced bytes a longer sequence may add to a symbolic recording; an
#: O(n^2) float32 mask is 1 MiB already at seq 512
_ALLOWANCE_BYTES = 64 * 1024


def _reference_mask(shape, offset):
    return np.triu(np.full(shape, _NEG_INF, dtype=np.float32), k=offset)


@pytest.fixture
def consts(monkeypatch):
    """Every ``ht.const`` call: name, shape, data, and ``make`` calls."""
    seen: list[dict] = []
    real = ht.const

    def spy(shape, make, **kwargs):
        entry = {"name": kwargs.get("name", ""), "shape": tuple(shape),
                 "makes": 0}

        def counted():
            entry["makes"] += 1
            return make()

        t = real(shape, counted, **kwargs)
        entry["data"] = t.data
        seen.append(entry)
        return t

    monkeypatch.setattr(ht, "const", spy)
    return seen


def _peak_bytes(seq: int) -> int:
    tracemalloc.start()
    try:
        record_training_step("gpt", batch=8, seq_len=seq)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConst:
    def test_symbolic_recording_never_calls_make(self):
        calls = []
        with ht.record(mode="symbolic") as rec:
            t = ht.const((1, 1, 2048, 2048), lambda: calls.append(1),
                         name="m")
        assert calls == []
        assert t.data is None
        value = rec.graph.value(t.vid)
        assert (value.shape, value.kind, value.name) == (
            (1, 1, 2048, 2048), "const", "m"
        )

    def test_symbolic_gpt_step_builds_no_constant(self, consts):
        record_training_step("gpt", batch=2, seq_len=64)
        names = {c["name"] for c in consts}
        assert {"positions", "causal_mask"} <= names
        assert all(c["makes"] == 0 and c["data"] is None for c in consts)

    def test_concrete_const_calls_make_once(self):
        calls = []

        def make():
            calls.append(1)
            return np.arange(6).reshape(2, 3)

        with ht.record():
            t = ht.const((2, 3), make, name="c")
        assert calls == [1]
        assert t.numpy().dtype == np.float32
        assert np.array_equal(t.numpy(), np.arange(6).reshape(2, 3))

    def test_wrong_shape_raises(self):
        with ht.record() as rec:
            with pytest.raises(ShapeError, match="make\\(\\) returned"):
                ht.const((2, 3), lambda: np.zeros((3, 2)), name="c")
        assert not rec.graph.values


class TestConcreteMasks:
    """The four causal-mask sites, byte for byte against the reference."""

    def _check(self, consts, name, offsets):
        masks = [c for c in consts if c["name"] == name]
        assert len(masks) == len(offsets)
        for mask, offset in zip(masks, offsets):
            assert mask["makes"] == 1
            ref = _reference_mask(mask["shape"], offset)
            assert mask["data"].dtype == ref.dtype
            assert mask["data"].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("cls, name", [
        (SoftmaxAttention, "causal_mask"),
        (ChunkedAttention, "chunk_mask"),
        (PipelinedSoftmaxAttention, "causal_mask"),
    ])
    def test_attention_sites(self, consts, cls, name):
        cfg = AttentionConfig(num_heads=2, head_dim=8, causal=True,
                              chunk_size=4)
        x = np.random.default_rng(0).normal(size=(1, 8, 16))
        with ht.record():
            cls(cfg)(ht.tensor(x))
        self._check(consts, name, [1])

    def test_generation_site(self, consts):
        model = GPT2LMHeadModel(tiny_gpt_config(vocab_size=13))
        _, caches = _forward_incremental(model, [1, 2, 3], 0, None)
        _forward_incremental(model, [4, 5], 3, caches)
        self._check(consts, "causal_mask", [1, 4])


def test_symbolic_recording_memory_is_flat_in_seq_len():
    record_training_step("gpt", batch=8, seq_len=256)  # warm imports
    base = _peak_bytes(256)
    for seq in (512, 1024, 2048):
        assert _peak_bytes(seq) <= base + _ALLOWANCE_BYTES, seq
