"""The sweep harness: grids as data, shared recipes, streamed JSONL.

Pins the declarative layer A4/A12/A13/A14 run on: deterministic grid
expansion, policy application, recipe reuse across points (memory
tier serially, the warm disk tier across pooled workers), JSONL
streaming in spec order, and rows that are byte-identical at any
``jobs`` width.
"""

import dataclasses
import json

from repro.core.e2e_llm import record_training_step
from repro.core.sweep import (
    SWEEP_POLICIES,
    SweepPoint,
    SweepSpec,
    run_sweep,
    sweep_spec_from_cli,
)
from repro.hw.config import HLS1Config
from repro.hw.device import HLS1Device
from repro.synapse import CompilerOptions, GraphCompiler, HLS1Runtime
from repro.util.errors import ConfigError

import pytest


def small_spec(**kwargs):
    defaults = dict(
        name="t",
        models=("layer:softmax",),
        batches=(2,),
        seq_lens=(64,),
        policies=(("ddp", (("inject_collectives", True),)),),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSpecExpansion:
    def test_cartesian_order_is_policy_innermost(self):
        spec = SweepSpec(
            name="g",
            models=("a", "b"),
            batches=(1, 2),
            cards=(1, 4),
            policies=(("p", ()), ("q", ())),
        )
        points = spec.expand()
        assert len(points) == 2 * 2 * 2 * 2
        assert [(p.model, p.batch, p.cards, p.policy)
                for p in points[:4]] == [
            ("a", 1, 1, "p"), ("a", 1, 1, "q"),
            ("a", 1, 4, "p"), ("a", 1, 4, "q"),
        ]
        assert points[-1] == SweepPoint(
            model="b", batch=2, seq_len=None, cards=4, policy="q",
        )

    def test_explicit_points_win_over_axes(self):
        pts = (SweepPoint(model="gpt", cards=8, policy="x"),)
        spec = SweepSpec(name="e", models=("a", "b"), points=pts)
        assert spec.expand() == list(pts)

    def test_point_options_apply_policy_delta(self):
        point = SweepPoint(
            model="gpt", policy="p",
            overrides=(("inject_collectives", True), ("bucket_mb", 4.0)),
        )
        opts = point.options(CompilerOptions())
        assert opts.inject_collectives is True
        assert opts.bucket_mb == 4.0
        # untouched fields keep the base values
        assert opts.comm_overlap is True

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            run_sweep(SweepSpec(name="empty", models=()))

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_sweep(small_spec(executor="nope"))

    def test_cli_spec_builder_validates_policies(self):
        with pytest.raises(ConfigError, match="unknown sweep policy"):
            sweep_spec_from_cli([], [], [], [], ["bogus"])
        spec = sweep_spec_from_cli(
            ["gpt"], [4], [], [1, 4], ["ddp", "no-overlap"]
        )
        assert spec.models == ("gpt",)
        assert spec.cards == (1, 4)
        assert [p for p, _ in spec.policies] == ["ddp", "no-overlap"]
        assert dict(spec.policies)["no-overlap"] == (
            SWEEP_POLICIES["no-overlap"]
        )


class TestSerialExecution:
    def test_repeated_recipe_compiles_once(self):
        # same workload/options at two card counts: the second point
        # must reuse the first point's recipe from the memory tier
        spec = small_spec(cards=(1, 2))
        result = run_sweep(spec, hls1=HLS1Config())
        sources = [r.metrics["compile"] for r in result.results]
        assert sources == ["cold", "memory"]
        assert (result.results[0].metrics["total_time_us"] > 0)

    def test_stream_jsonl_in_spec_order(self, tmp_path):
        out = tmp_path / "points.jsonl"
        spec = small_spec(cards=(1, 2))
        result = run_sweep(spec, hls1=HLS1Config(), stream=out)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 2
        assert [l["cards"] for l in lines] == [1, 2]
        for line, pr in zip(lines, result.results):
            assert line == pr.to_json(spec.name)

    def test_result_for_lookup(self):
        spec = small_spec(cards=(1, 2))
        result = run_sweep(spec, hls1=HLS1Config())
        assert result.result_for(cards=2).point.cards == 2
        with pytest.raises(KeyError):
            result.result_for(cards=16)

    def test_render_mentions_every_point(self):
        result = run_sweep(small_spec(cards=(1, 2)), hls1=HLS1Config())
        text = result.render()
        assert "2 point(s)" in text
        assert "ddp" in text


class TestRuntimeOptions:
    def test_no_hbm_contention_reaches_the_runtime(self):
        # repro --no-hbm-contention sweep --model gpt --card 8 --boxes 4
        #   --policy ddp --tp 2 --pp 2
        spec = sweep_spec_from_cli(
            ["gpt"], [], [], [8], ["ddp"], boxes=[4], tp=2, pp=2
        )
        hls1 = HLS1Config()
        base = dataclasses.replace(
            CompilerOptions(), hbm_contention=False
        )
        flagged = run_sweep(spec, hls1=hls1, options=base)
        contended = run_sweep(spec, hls1=hls1)
        schedule = GraphCompiler(
            hls1.card, spec.expand()[0].options(base)
        ).compile(record_training_step("gpt").graph)
        system = HLS1Device(dataclasses.replace(hls1, boxes=4))
        expected = HLS1Runtime(system).execute(
            schedule, hbm_contention=False
        ).total_time_us
        assert flagged.results[0].metrics["total_time_us"] == expected
        assert contended.results[0].metrics["total_time_us"] != expected


class TestPooledExecution:
    def test_jobs_rows_byte_identical_and_disk_warm(self, tmp_path):
        spec = small_spec(cards=(1, 2, 4))
        serial = run_sweep(spec, hls1=HLS1Config())
        pooled = run_sweep(
            spec, hls1=HLS1Config(), jobs=2, recipe_dir=tmp_path
        )
        for a, b in zip(serial.results, pooled.results):
            assert a.point == b.point
            for key in ("total_time_us", "exposed_comm_us",
                        "fabric_busy_us", "all_reduce_ops"):
                assert a.metrics[key] == b.metrics[key], key
        # the parent warmed the shared disk cache: every worker
        # replayed the recipe by signature instead of recompiling
        assert [r.metrics["compile"] for r in pooled.results] == (
            ["disk"] * 3
        )
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_pooled_stream_matches_serial(self, tmp_path):
        spec = small_spec(cards=(1, 2))
        a, b = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
        run_sweep(spec, hls1=HLS1Config(), stream=a)
        run_sweep(spec, hls1=HLS1Config(), jobs=2, stream=b)
        serial = [json.loads(l) for l in a.read_text().splitlines()]
        pooled = [json.loads(l) for l in b.read_text().splitlines()]
        for x, y in zip(serial, pooled):
            x.pop("compile"), y.pop("compile")
            assert x == y


class TestProfileExecutor:
    def test_profile_points_carry_rich_results(self):
        spec = small_spec(
            executor="profile",
            policies=(
                ("in-order", (("scheduler", "inorder"),)),
                ("lookahead", (("scheduler", "lookahead"),)),
            ),
        )
        result = run_sweep(spec)
        assert len(result.results) == 2
        for pr in result.results:
            assert pr.profile is not None
            assert pr.metrics["total_time_us"] == pr.profile.total_time_us
            assert pr.metrics["peak_bytes"] > 0

    def test_graph_memo_shared_across_sweeps(self):
        graphs = {}
        spec = small_spec(
            models=("gpt",), batches=(2,), seq_lens=(64,),
            executor="profile",
            policies=(("oracle", (("use_recipe_cache", False),)),),
        )
        run_sweep(spec, graphs=graphs)
        assert ("gpt", 2, 64, False) in graphs
        before = dict(graphs)
        run_sweep(spec, graphs=graphs)  # reuses, doesn't re-record
        assert {k: id(v) for k, v in graphs.items()} == (
            {k: id(v) for k, v in before.items()}
        )
