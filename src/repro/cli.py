"""Command-line interface: ``python -m repro <experiment>``.

Runs any single experiment from the paper (tables, figures, ablations,
extensions) or the whole study, printing the same rendering the
benchmark harness produces. Exit code is 1 when a shape check misses
— the CLI is usable as a CI gate for the reproduction — and 2 when the
run is refused with a typed :class:`~repro.util.errors.ReproError`
(printed as a one-line ``error:`` message, not a traceback).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Any, Callable

from .core import (
    SWEEP_POLICIES,
    run_activation_study,
    run_attention_study,
    run_backend_ablation,
    run_chunked_attention_study,
    run_decode_study,
    run_e2e,
    run_energy_study,
    run_full_study,
    run_fusion_ablation,
    run_generation_comparison,
    run_hbm_contention_ablation,
    run_kernel_pack_ablation,
    run_memory_ablation,
    run_mme_vs_tpc,
    run_op_mapping,
    run_overlap_scheduler_ablation,
    run_parallel_study,
    run_pass_toggle_ablation,
    run_pipelined_attention_study,
    run_reorder_ablation,
    run_comm_overlap_ablation,
    run_scaling_study,
    run_seq_sweep,
    run_serving_ablation,
    run_tpc_core_sweep,
)
from .hw.device import default_device
from .synapse import (
    DEFAULT_RECIPE_CACHE_DIR,
    PASS_OPTION_FLAGS,
    CompilerOptions,
    default_recipe_cache_dir,
    disable_passes,
    set_default_recipe_cache_dir,
)
from .util.errors import ConfigError, ReproError


#: builds one experiment's result (``render()`` + ``checks()``) from the
#: run's compiler options, ``--cards`` (None when not given) and ``--jobs``
Runner = Callable[[CompilerOptions, int | None, int], Any]

#: the commands that read ``--cards``; every other one refuses it
CARDS_COMMANDS = ("scaling", "ablation-comm")


def _with_options(run: Callable[..., Any], *args: Any) -> Runner:
    """A runner that hands the run's compiler options to ``run``."""
    return lambda options, cards, jobs: run(*args, options=options)


def _scaling(options: CompilerOptions, cards: int | None, jobs: int) -> Any:
    counts = tuple(p for p in (1, 2, 4, 8) if cards is None or p <= cards)
    return run_scaling_study(card_counts=counts, jobs=jobs, options=options)


def _comm_ablation(
    options: CompilerOptions, cards: int | None, jobs: int
) -> Any:
    return run_comm_overlap_ablation(
        num_cards=cards or 8, jobs=jobs, options=options
    )


EXPERIMENTS: dict[str, tuple[str, Runner]] = {
    "table1": ("Table 1: operation-engine mapping",
               _with_options(run_op_mapping)),
    "table2": ("Table 2: MME vs TPC batched matmul",
               lambda options, cards, jobs: run_mme_vs_tpc()),
    "fig4-6": ("Figures 4-6: attention-variant layer profiles",
               _with_options(run_attention_study)),
    "fig7": ("Figure 7: activation functions",
             _with_options(run_activation_study)),
    "fig8": ("Figure 8: GPT end-to-end training step",
             _with_options(run_e2e, "gpt")),
    "fig9": ("Figure 9: BERT end-to-end training step",
             _with_options(run_e2e, "bert")),
    "seq-sweep": ("Long-sequence sweep (challenge #3)",
                  _with_options(run_seq_sweep)),
    "ablation-reorder": ("A1: issue-order ablation",
                         _with_options(run_reorder_ablation)),
    "ablation-fusion": ("A2: elementwise-fusion ablation",
                        _with_options(run_fusion_ablation)),
    "ablation-tpc-cores": ("A3: TPC core-count sweep",
                           _with_options(run_tpc_core_sweep)),
    "scaling": ("A4: HLS-1 multi-card scaling extension", _scaling),
    "chunked": ("A5: chunked-attention extension",
                _with_options(run_chunked_attention_study)),
    "pipelined": ("A6: pipelined exact-attention extension",
                  _with_options(run_pipelined_attention_study)),
    "gaudi2": ("A7: Gaudi2 what-if extension",
               _with_options(run_generation_comparison)),
    "energy": ("A8: energy extension", _with_options(run_energy_study)),
    "decode": ("A9: KV-cached decode extension",
               _with_options(run_decode_study)),
    "ablation-passes": ("A10: per-pass toggle ablation",
                        _with_options(run_pass_toggle_ablation)),
    "ablation-hbm": ("A11: HBM contention ablation",
                     _with_options(run_hbm_contention_ablation)),
    "ablation-comm": ("A12: communication-overlap ablation",
                      _comm_ablation),
    "ablation-overlap": ("A13: overlap scheduler ablation",
                         _with_options(run_overlap_scheduler_ablation)),
    "ablation-memory": ("A14: memory planning ablation",
                        _with_options(run_memory_ablation)),
    "ablation-serving": ("A15: static vs continuous batching",
                         _with_options(run_serving_ablation)),
    "ablation-parallel": ("A16: multi-box parallel layouts",
                          _with_options(run_parallel_study)),
    "ablation-kernels": ("A17: attention kernel pack",
                         _with_options(run_kernel_pack_ablation)),
    "ablation-backends": ("A18: cross-backend comparison (Gaudi vs WSE)",
                          _with_options(run_backend_ablation)),
}


def _lint_gate(options: CompilerOptions) -> int:
    """Compile the Fig-4 layer and Fig-8 GPT graphs and lint both.

    The CI gate: a non-zero exit means a representative paper graph no
    longer compiles. Lint warnings are informational.
    """
    from . import ht
    from .core.e2e_llm import record_training_step
    from .models import TransformerLayer, paper_layer_config
    from .synapse import GraphCompiler, lint_graph, render_warnings

    layer_cfg = paper_layer_config("softmax")
    layer = TransformerLayer(layer_cfg, materialize=False)
    with ht.record("fig4-layer", mode="symbolic") as rec:
        layer(ht.input_tensor((8, 256, layer_cfg.d_model)))
    graphs = [rec.graph, record_training_step("gpt", batch=2,
                                              seq_len=128).graph]
    compiler = GraphCompiler(options=options)
    for graph in graphs:
        schedule = compiler.compile(graph)
        warnings = lint_graph(graph)
        print(f"== lint {graph.name!r}: {len(schedule)} scheduled ops, "
              f"{len(warnings)} warning(s) ==")
        if warnings:
            print(render_warnings(warnings))
        for entry in schedule.stats.get("passes", []):
            print(f"  pass {entry['pass']:<20} "
                  f"{'on ' if entry['enabled'] else 'off'} "
                  f"units {entry['units_in']}->{entry['units_out']} "
                  f"transforms {entry['transforms']}")
    return 0


def _profile_self(
    scenario: str, top: int, options: CompilerOptions, cards: int | None,
    jobs: int,
) -> int:
    """cProfile one named experiment, print the top cumulative frames.

    The self-measurement loop behind the simulator-performance work:
    run any EXPERIMENTS scenario under :mod:`cProfile` and show where
    the wall-clock goes (vector drains, pass pipeline, recording).
    """
    import cProfile
    import pstats

    title, runner = EXPERIMENTS[scenario]
    print(f"== profile-self: {title} ==")
    profiler = cProfile.Profile()
    profiler.enable()
    runner(options, cards, jobs)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Benchmarking and In-depth Performance "
                    "Study of LLMs on Habana Gaudi Processors' (SC-W 2023) "
                    "on a calibrated simulator.",
    )
    parser.add_argument(
        "--disable-pass", action="append", default=[],
        choices=sorted(PASS_OPTION_FLAGS), metavar="PASS",
        help="disable a GraphCompiler pass for every compile "
             f"(choices: {', '.join(sorted(PASS_OPTION_FLAGS))}; "
             "repeatable)",
    )
    parser.add_argument(
        "--no-recipe-cache", action="store_true",
        help="recompile every graph instead of reusing cached recipes",
    )
    parser.add_argument(
        "--no-hbm-contention", action="store_true",
        help="time every op at full HBM bandwidth instead of sharing "
             "it across concurrent engines (the pre-contention model)",
    )
    parser.add_argument(
        "--cards", type=int, default=None, metavar="N",
        help="HLS-1 population for the multi-card experiments "
             "(power of two <= 8; caps the A4 sweep, sets A12's box; "
             "every other command refuses it)",
    )
    parser.add_argument(
        "--bucket-mb", type=float, default=None, metavar="MB",
        help="gradient-bucket size for collective injection "
             "(default 25)",
    )
    parser.add_argument(
        "--no-comm-overlap", action="store_true",
        help="emit one monolithic gradient all-reduce behind the last "
             "gradient instead of bucketed overlapped all-reduces",
    )
    parser.add_argument(
        "--scheduler", choices=("inorder", "reorder", "lookahead"),
        default=None,
        help="runtime issue policy: 'inorder' (default) issues each "
             "engine's queue in program order, 'reorder' is the greedy "
             "earliest-ready scheduler, 'lookahead' adds critical-path "
             "priorities and an MME-starvation lookahead",
    )
    parser.add_argument(
        "--tpc-slice-ops", action="store_true",
        help="slice large batch-parallel TPC ops into row slices so "
             "they overlap with MME compute (the A13 machinery)",
    )
    parser.add_argument(
        "--hbm-budget", type=float, default=None, metavar="GIB",
        help="HBM budget in GiB for the memory planner (default: the "
             "device's 32 GiB capacity)",
    )
    parser.add_argument(
        "--memory-policy", choices=("none", "recompute", "spill", "auto"),
        default=None,
        help="what the memory planner may do when a graph's peak "
             "exceeds the HBM budget: recompute checkpointed "
             "activations, spill values to host over the DMA, or "
             "'auto' to pick the cheaper transform per interval "
             "(default 'none': validate and reject, the pre-planning "
             "behaviour)",
    )
    parser.add_argument(
        "--recipe-cache-dir", nargs="?", const=DEFAULT_RECIPE_CACHE_DIR,
        default=None, metavar="DIR",
        help="persist compiled recipes to DIR and reuse them across "
             f"runs (default {DEFAULT_RECIPE_CACHE_DIR} when the flag "
             "is given without a value)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="process-pool width for the multi-card simulations "
             "(A4/A12); results are identical at any width",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="hardware backend every compile targets: 'gaudi' "
             "(default) or 'wse'; single-card experiments retarget "
             "wholesale, multi-card ones require gaudi",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run every experiment")
    study.add_argument("--no-extensions", action="store_true",
                       help="skip ablations/extensions (A1-A9)")
    study.add_argument("-o", "--output", help="also write the report here")
    study.add_argument("--artifacts",
                       help="directory for report.txt + checks.json")

    for name, (title, _) in EXPERIMENTS.items():
        sub.add_parser(name, help=title)

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative scenario grid (model x batch x seq x "
             "cards x policy) on the sweep harness",
    )
    sweep.add_argument("--model", action="append", default=[],
                       metavar="NAME",
                       help="workload: gpt, bert, or layer:<kind> "
                            "(repeatable; default gpt)")
    sweep.add_argument("--batch", action="append", default=[], type=int,
                       metavar="N",
                       help="batch size axis (repeatable; default: the "
                            "workload's paper shape)")
    sweep.add_argument("--seq-len", action="append", default=[], type=int,
                       metavar="N",
                       help="sequence length axis (repeatable)")
    sweep.add_argument("--card", action="append", default=[], type=int,
                       metavar="N",
                       help="cards-per-box axis (repeatable; default 1)")
    sweep.add_argument("--boxes", action="append", default=[], type=int,
                       metavar="N",
                       help="HLS-1 box-count axis bridged by the "
                            "Ethernet tier (repeatable; default 1)")
    sweep.add_argument("--tp", type=int, default=1, metavar="N",
                       help="tensor-parallel degree applied to every "
                            "point's compile (default 1)")
    sweep.add_argument("--pp", type=int, default=1, metavar="N",
                       help="pipeline-parallel stages applied to every "
                            "point's compile (microbatches = pp; "
                            "default 1)")
    sweep.add_argument("--auto-layout", action="store_true",
                       help="let the auto-parallelism planner pick "
                            "(tp, pp, dp) per (model, cards x boxes) "
                            "population instead of --tp/--pp")
    sweep.add_argument("--policy", action="append", default=[],
                       choices=sorted(SWEEP_POLICIES), metavar="POLICY",
                       help="compiler-option bundle axis (choices: "
                            f"{', '.join(sorted(SWEEP_POLICIES))}; "
                            "repeatable; default 'default')")
    sweep.add_argument("--attention-kernel", action="append", default=[],
                       choices=("naive", "fused", "windowed", "flash"),
                       metavar="KERNEL",
                       help="attention-lowering axis crossed with every "
                            "policy (choices: naive, fused, windowed, "
                            "flash; repeatable; default: the compile "
                            "default, naive)")
    sweep.add_argument("--backend", action="append", default=None,
                       dest="backend_axis", metavar="NAME",
                       help="hardware-backend axis crossed with every "
                            "policy (gaudi, wse; repeatable; non-gaudi "
                            "backends require cards = boxes = 1; "
                            "default: the compile default, gaudi)")
    sweep.add_argument("-o", "--out", metavar="FILE",
                       help="stream one JSON line per completed point "
                            "to FILE")

    serve = sub.add_parser(
        "serve",
        help="simulate request-level inference serving (Poisson "
             "arrivals, KV-cached decode, static or continuous "
             "batching)",
    )
    serve.add_argument("--requests", type=int, default=10_000, metavar="N",
                       help="arrivals per scenario (default 10000)")
    serve.add_argument("--rate", action="append", default=[], type=float,
                       metavar="R",
                       help="arrival rate in requests/s (repeatable; "
                            "default 10, 20, 40)")
    serve.add_argument("--policy", action="append", default=[],
                       choices=("static", "continuous"), metavar="POLICY",
                       help="batching policy axis (repeatable; default "
                            "both)")
    serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                       help="in-flight batch slots (default 8)")
    serve.add_argument("--seed", type=int, default=0, metavar="N",
                       help="arrival-trace seed (default 0)")
    serve.add_argument("--attention-kernel", default=None,
                       choices=("naive", "fused", "windowed", "flash"),
                       metavar="KERNEL",
                       help="attention lowering for every prefill/decode "
                            "compile (default: the compile default, "
                            "naive)")
    serve.add_argument("-o", "--out", metavar="FILE",
                       help="stream one JSON line per completed "
                            "scenario to FILE")

    prof = sub.add_parser(
        "profile-self",
        help="cProfile one named experiment and print the hottest "
             "simulator frames",
    )
    prof.add_argument("scenario", choices=sorted(EXPERIMENTS),
                      help="which experiment to profile")
    prof.add_argument("--top", type=int, default=20, metavar="N",
                      help="how many cumulative entries to print "
                           "(default 20)")

    sub.add_parser("describe", help="print the simulated-device summary")
    sub.add_parser("lint-gate",
                   help="compile + lint the Fig-4 and Fig-8 graphs (CI)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    """Resolve the global flags for one invocation, then dispatch.

    The flags build one :class:`CompilerOptions` from its defaults,
    which travels down as an argument. The recipe directory is the one
    process-wide setting a flag touches, and it is restored afterwards
    — so an invocation behaves the same whether or not another ran
    earlier in the same process.
    """
    if args.cards is not None:
        if args.cards < 1:
            raise ConfigError(f"--cards must be >= 1, got {args.cards}")
        target = args.scenario if args.command == "profile-self" \
            else args.command
        if target not in CARDS_COMMANDS:
            raise ConfigError(
                f"--cards only applies to {' and '.join(CARDS_COMMANDS)}, "
                f"not {target}"
            )
    options = CompilerOptions()
    if args.disable_pass:
        options = disable_passes(options, *args.disable_pass)
    if args.backend is not None:
        from .hw.backend import get_backend

        get_backend(args.backend)  # fail fast on unknown names
    budget = args.hbm_budget
    if budget is not None:
        # checked in GiB, as typed: nan and inf have no byte count,
        # and a value under one byte rounds to a budget of 0
        nbytes = int(budget * (1 << 30)) if math.isfinite(budget) else 0
        if nbytes < 1:
            raise ConfigError(
                "--hbm-budget must be a finite number of GiB of at least "
                f"one byte, got {budget:g}"
            )
        budget = nbytes
    # each flag given on the command line overrides one field
    flags = {
        "use_recipe_cache": False if args.no_recipe_cache else None,
        "hbm_contention": False if args.no_hbm_contention else None,
        "bucket_mb": args.bucket_mb,
        "comm_overlap": False if args.no_comm_overlap else None,
        "scheduler": args.scheduler,
        "backend": args.backend,
        "tpc_slice_ops": True if args.tpc_slice_ops else None,
        "hbm_budget": budget,
        "memory_policy": args.memory_policy,
    }
    options = dataclasses.replace(
        options, **{k: v for k, v in flags.items() if v is not None}
    )
    saved = default_recipe_cache_dir()
    set_default_recipe_cache_dir(args.recipe_cache_dir)
    try:
        return _dispatch(args, options, args.cards, max(1, args.jobs))
    finally:
        set_default_recipe_cache_dir(saved)


def _dispatch(
    args: argparse.Namespace, options: CompilerOptions, cards: int | None,
    jobs: int,
) -> int:
    if args.command == "lint-gate":
        return _lint_gate(options)

    if args.command == "sweep":
        from .core import run_sweep, sweep_spec_from_cli

        backend_axis = args.backend_axis or (
            [args.backend] if args.backend else []
        )
        spec = sweep_spec_from_cli(
            args.model, args.batch, args.seq_len, args.card, args.policy,
            boxes=args.boxes, tp=args.tp, pp=args.pp,
            auto_layout=args.auto_layout,
            attention=args.attention_kernel,
            backend=backend_axis,
            options=options,
        )
        result = run_sweep(
            spec, options=options, jobs=jobs, stream=args.out,
            recipe_dir=default_recipe_cache_dir(),
        )
        print(result.render())
        if args.out:
            print(f"\n{len(result.results)} point(s) streamed to "
                  f"{args.out}")
        return 0

    if args.command == "serve":
        from .core import (
            SERVING_POLICIES,
            ServingPoint,
            render_serving_table,
            run_serving,
        )

        rates = args.rate or [10.0, 20.0, 40.0]
        policies = args.policy or list(SERVING_POLICIES)
        points = [
            ServingPoint(
                policy=policy, rate_per_s=rate,
                num_requests=args.requests, seed=args.seed,
                max_batch=args.max_batch,
            )
            for rate in rates
            for policy in policies
        ]
        if args.attention_kernel:
            options = dataclasses.replace(
                options, attention_lowering=args.attention_kernel
            )
        results = run_serving(
            points, jobs=jobs, stream=args.out, options=options,
            recipe_dir=default_recipe_cache_dir(),
        )
        print(render_serving_table(
            results,
            title=f"serving: {args.requests} requests/scenario, "
                  f"max batch {args.max_batch}",
        ))
        if args.out:
            print(f"\n{len(results)} scenario(s) streamed to {args.out}")
        return 0

    if args.command == "profile-self":
        return _profile_self(args.scenario, args.top, options, cards, jobs)

    if args.command == "describe":
        if args.backend is not None:
            from .hw.backend import get_backend

            backend = get_backend(args.backend)
            device = backend.make_device(backend.default_config())
            print(device.describe())
        else:
            print(default_device().describe())
        return 0

    if args.command == "study":
        report = run_full_study(
            options, include_extensions=not args.no_extensions, jobs=jobs
        )
        text = report.render()
        print(text)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        if args.artifacts:
            from .core import save_study

            path = save_study(report, args.artifacts)
            print(f"\nartifacts written to {path.parent}")
        return 0 if report.all_passed else 1

    title, runner = EXPERIMENTS[args.command]
    result = runner(options, cards, jobs)
    text, checks = result.render(), result.checks()
    print(f"== {title} ==")
    print(text)
    print()
    for check in checks:
        print(check)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
