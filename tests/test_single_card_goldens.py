"""Pinned single-card traces and recipe keys.

Golden digests (the first 16 hex digits of
:func:`~tests.test_multicard_runtime._trace_digest`: every event field,
every engine interval, the makespan) of one-device executes: the Fig 4
softmax layer, the Fig 6 Performer layer and the GPT training step on
Gaudi under every issue policy with HBM contention on and off, plus the
softmax layer on the WSE backend. The literal default option signature
and the GPT step's default recipe key pin the disk-cache keys: option
fields may come and go, but a stored recipe must still be found.
"""

import pytest

from repro.core.ablations import _layer_graph
from repro.core.e2e_llm import record_training_step
from repro.hw.backend import get_backend
from repro.hw.config import GaudiConfig
from repro.synapse import CompilerOptions, GraphCompiler, Runtime
from repro.synapse.recipe import RecipeCache, options_signature, recipe_key
from tests.test_multicard_runtime import _trace_digest

WORKLOADS = {
    "softmax": lambda: _layer_graph("softmax"),
    "performer": lambda: _layer_graph("performer"),
    "gpt-step": lambda: record_training_step("gpt").graph,
}
POLICIES = ("inorder", "reorder", "lookahead")
CONTENTION = {"contended": True, "uncontended": False}

#: backend/workload/scheduler/memory model -> digest prefix
GOLDEN_DIGESTS = {
    "gaudi/softmax/inorder/contended": "6b95717c578cfe7c",
    "gaudi/softmax/inorder/uncontended": "00da1668f0ed081e",
    "gaudi/softmax/reorder/contended": "dfd904b02ba7eb8f",
    "gaudi/softmax/reorder/uncontended": "ed4a3124997338d3",
    "gaudi/softmax/lookahead/contended": "dfd904b02ba7eb8f",
    "gaudi/softmax/lookahead/uncontended": "b50f4dd3ec6e5bf3",
    "gaudi/performer/inorder/contended": "e5c2f403d08ebc2b",
    "gaudi/performer/inorder/uncontended": "5ef94558504cff54",
    "gaudi/performer/reorder/contended": "1fc93d1bd2dc4a63",
    "gaudi/performer/reorder/uncontended": "f2b895d6d4c5cadc",
    "gaudi/performer/lookahead/contended": "eb7168f41adecb56",
    "gaudi/performer/lookahead/uncontended": "e13fef87b6471c18",
    "gaudi/gpt-step/inorder/contended": "1f9c2c8b4fe90378",
    "gaudi/gpt-step/inorder/uncontended": "cfdc40c2a58358d7",
    "gaudi/gpt-step/reorder/contended": "cfd5ae84ba6c88ad",
    "gaudi/gpt-step/reorder/uncontended": "2a2086d443d5261a",
    "gaudi/gpt-step/lookahead/contended": "f18ad959291d961e",
    "gaudi/gpt-step/lookahead/uncontended": "bdd3e745c9446a38",
    "wse/softmax/inorder/contended": "dbb9f8da872ca86e",
    "wse/softmax/inorder/uncontended": "6deaf488e4520fee",
}

#: ``options_signature(CompilerOptions())``: compile-relevant fields
#: only, so runtime-only fields never reach a recipe key
DEFAULT_OPTIONS_SIGNATURE = (
    "[('attention_lowering', 'naive'), ('attention_window', 512), "
    "('backend', 'gaudi'), ('bucket_mb', 25.0), ('comm_overlap', True), "
    "('elide_views', True), ('enforce_memory', True), "
    "('fuse_elementwise', True), ('hbm_budget', None), "
    "('inject_collectives', False), ('inject_recompiles', True), "
    "('insert_dma', True), ('lower_composites', True), "
    "('memory_policy', 'none'), ('microbatches', 1), "
    "('plan_memory', True), ('pp', 1), ('recompile_once', True), "
    "('recompile_penalty_us', 2500.0), ('tp', 1), "
    "('tpc_slice_min_us', 200.0), ('tpc_slice_ops', False), "
    "('validate_graph', True)]"
)

#: ``recipe_key`` of the GPT training step under default options
GPT_STEP_RECIPE_KEY = (
    "856d879701d674fc62bf27a246683038057ec7f549ccde4ad4edc1fd3b237438"
)


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in WORKLOADS.items()}


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_golden_digest(graphs, key):
    backend, workload, policy, contention = key.split("/")
    compiler = GraphCompiler(
        options=CompilerOptions(backend=backend), cache=RecipeCache()
    )
    schedule = compiler.compile(graphs[workload])
    device = get_backend(backend).make_device(compiler.config)
    result = Runtime(device).execute(
        schedule, scheduler=policy, hbm_contention=CONTENTION[contention]
    )
    digest = _trace_digest(result, get_backend(backend).engines)
    assert digest[:16] == GOLDEN_DIGESTS[key]


def test_gaudi_goldens_cover_the_grid():
    assert {k for k in GOLDEN_DIGESTS if k.startswith("gaudi/")} == {
        f"gaudi/{w}/{p}/{c}" for w in WORKLOADS for p in POLICIES
        for c in CONTENTION
    }


def test_default_options_signature():
    assert options_signature(CompilerOptions()) == DEFAULT_OPTIONS_SIGNATURE


def test_gpt_step_default_recipe_key(graphs):
    key = recipe_key(graphs["gpt-step"], GaudiConfig(), CompilerOptions())
    assert key == GPT_STEP_RECIPE_KEY
