"""Unit tests for repro.util.tabulate and repro.util.rng."""

import hashlib

import numpy as np
import pytest

from repro.models import (
    BertForMaskedLM,
    GPT2LMHeadModel,
    paper_bert_config,
    paper_gpt_config,
    paper_layer_config,
    tiny_bert_config,
    tiny_gpt_config,
)
from repro.models.transformer import TransformerLayer
from repro.util import rng as rng_mod
from repro.util.tabulate import render_kv, render_table


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        # every row has the same width
        assert len({len(line) for line in lines}) == 1

    def test_floats_two_decimals(self):
        out = render_table(["x"], [[3.14159]])
        assert "3.14" in out and "3.142" not in out

    def test_title(self):
        out = render_table(["x"], [[1]], title="Table 2")
        assert out.splitlines()[0] == "Table 2"

    def test_markdown_mode(self):
        out = render_table(["a", "b"], [[1, 2]], markdown=True)
        lines = out.splitlines()
        assert lines[0].startswith("| ")
        assert set(lines[1]) <= {"|", "-"}

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="row 0"):
            render_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        out = render_table(["a"], [])
        assert "a" in out


class TestRenderKv:
    def test_pairs(self):
        out = render_kv([("key", 1), ("longer_key", 2.5)])
        assert "key" in out and "2.50" in out

    def test_empty(self):
        assert render_kv([]) == ""
        assert render_kv([], title="t") == "t"


class TestRng:
    def test_default_seed_reproducible(self):
        a = rng_mod.make_rng().random(5)
        b = rng_mod.make_rng().random(5)
        np.testing.assert_array_equal(a, b)

    def test_explicit_seed(self):
        a = rng_mod.make_rng(7).random(5)
        b = rng_mod.make_rng(7).random(5)
        c = rng_mod.make_rng(8).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_is_stable_wrt_parent_consumption(self):
        parent1 = rng_mod.make_rng(3)
        parent2 = rng_mod.make_rng(3)
        parent2.random(100)  # consume from one parent only
        child1 = rng_mod.derive(parent1, "performer", "features")
        child2 = rng_mod.derive(parent2, "performer", "features")
        np.testing.assert_array_equal(child1.random(5), child2.random(5))

    def test_derive_different_tags_differ(self):
        parent = rng_mod.make_rng(3)
        a = rng_mod.derive(parent, "a").random(5)
        b = rng_mod.derive(parent, "b").random(5)
        assert not np.array_equal(a, b)


def _weights_digest(model) -> str:
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]


class TestModuleRng:
    def test_symbolic_builds_derive_no_streams(self, monkeypatch):
        def drawn(*args, **kwargs):
            raise AssertionError("a symbolic build derived an RNG stream")

        monkeypatch.setattr(np.random, "SeedSequence", drawn)
        monkeypatch.setattr(np.random, "default_rng", drawn)
        GPT2LMHeadModel(paper_gpt_config(), materialize=False)
        BertForMaskedLM(paper_bert_config(), materialize=False)
        TransformerLayer(paper_layer_config("performer"), materialize=False)

    def test_concrete_weights_unchanged(self):
        # digests of the weights a concrete build draws: skipping the
        # symbolic derivations must not move a single stream
        assert _weights_digest(GPT2LMHeadModel(tiny_gpt_config())) == (
            "f0487dbeb7d9befe"
        )
        assert _weights_digest(BertForMaskedLM(tiny_bert_config())) == (
            "28d4f1f35ea54c28"
        )
        seeded = GPT2LMHeadModel(
            tiny_gpt_config(), rng=np.random.default_rng(5)
        )
        assert _weights_digest(seeded) == "3e40cb36406555b3"

    def test_module_rng(self):
        assert rng_mod.module_rng(rng_mod.make_rng(1), False) is None
        assert rng_mod.derive(None, "a", "b") is None
        given = rng_mod.make_rng(1)
        assert rng_mod.module_rng(given, True) is given
        np.testing.assert_array_equal(
            rng_mod.module_rng(None, True).random(3),
            rng_mod.make_rng().random(3),
        )
