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
import re
import sys

from .core import (
    EXPERIMENTS,
    GLOBAL_FLAGS,
    SWEEP_POLICIES,
    run_full_study,
    study_entries,
)
from .hw.backend import backend_names, get_backend
from .synapse import (
    DEFAULT_RECIPE_CACHE_DIR,
    PASS_OPTION_FLAGS,
    CompilerOptions,
    default_recipe_cache_dir,
    disable_passes,
    set_default_recipe_cache_dir,
)
from .util.errors import ConfigError, ReproError

#: the global flags each command outside the experiment table reads;
#: all but ``study`` (its records' common backends) run on any backend
_OTHER_COMMANDS: dict[str, tuple[str, ...]] = {
    "study": ("jobs",), "sweep": ("jobs",), "serve": ("jobs",),
    "describe": (), "lint-gate": (),
}

#: a value argparse would take for an option: ``-1e-3``, ``-inf``
_SIGNED_NUMBER = re.compile(
    r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?|-inf(inity)?|-nan", re.IGNORECASE
)


def _honoured(command: str, include_extensions: bool = True) -> set[str]:
    """The global flags ``command`` honours, each backend as
    ``--backend NAME``; the study runs on the backends its records
    share."""
    if command in EXPERIMENTS:
        reads, backends = EXPERIMENTS[command].reads, \
            EXPERIMENTS[command].backends
    else:
        entries = study_entries(include_extensions) \
            if command == "study" else []
        reads, backends = _OTHER_COMMANDS[command], [
            b for b in backend_names()
            if all(b in e.backends for e in entries)
        ]
    return {f"--{f}" for f in reads} | {f"--backend {b}" for b in backends}


def _readers(flag: str) -> str:
    """The commands that honour ``flag``, as text."""
    names = [c for c in (*EXPERIMENTS, *_OTHER_COMMANDS)
             if flag in _honoured(c)]
    return ", ".join(names[:-1]) + " and " + names[-1] \
        if len(names) > 1 else "".join(names)


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

    experiment = EXPERIMENTS[scenario]
    print(f"== profile-self: {experiment.title} ==")
    profiler = cProfile.Profile()
    profiler.enable()
    experiment(options, cards, jobs)
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
        help=f"HLS-1 population (power of two <= 8) for "
             f"{_readers('--cards')}; every other command refuses it",
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
        "--jobs", type=int, default=None, metavar="N",
        help=f"process-pool width (default 1) for "
             f"{_readers('--jobs')}; results are identical at any "
             "width; every other command refuses it",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="hardware backend every compile targets: gaudi (default) "
             "for every command, "
             + "; ".join(f"{b} for {_readers(f'--backend {b}')}"
                         for b in backend_names() if b != "gaudi"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run every experiment")
    study.add_argument("--no-extensions", action="store_true",
                       help="skip ablations/extensions (A1-A9)")
    study.add_argument("-o", "--output", help="also write the report here")
    study.add_argument("--artifacts",
                       help="directory for report.txt + checks.json")

    for experiment in EXPERIMENTS.values():
        sub.add_parser(experiment.name, help=experiment.title)

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
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_signed_numbers(argv))
    try:
        return _run(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _join_signed_numbers(argv: list[str]) -> list[str]:
    """Read ``--flag -1e-3`` as ``--flag=-1e-3``, so that the value
    reaches the flag's typed check instead of argparse's option lookup."""
    joined: list[str] = []
    for token in argv:
        if (joined and _SIGNED_NUMBER.fullmatch(token)
                and re.fullmatch(r"--[^=]+", joined[-1])):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def _refuse_unread_flags(args: argparse.Namespace) -> None:
    """Refuse, before any compile, a global flag or backend that the
    command (``profile-self``: its scenario) does not honour."""
    target = args.scenario if args.command == "profile-self" \
        else args.command
    given = [f"--{f}" for f in GLOBAL_FLAGS if getattr(args, f) is not None]
    if args.backend is not None:
        given.append(f"--backend {args.backend}")
    honoured = _honoured(target, not getattr(args, "no_extensions", False))
    for flag in given:
        if flag not in honoured:
            raise ConfigError(
                f"{flag} only applies to {_readers(flag)}, not {target}"
            )


def _run(args: argparse.Namespace) -> int:
    """Resolve the global flags for one invocation, then dispatch.

    The flags build one :class:`CompilerOptions` from its defaults,
    which travels down as an argument. The recipe directory is the one
    process-wide setting a flag touches, and it is restored afterwards
    — so an invocation behaves the same whether or not another ran
    earlier in the same process.
    """
    for flag in GLOBAL_FLAGS:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")
    if args.backend is not None:
        get_backend(args.backend)  # fail fast on unknown names
    _refuse_unread_flags(args)
    options = CompilerOptions()
    if args.disable_pass:
        options = disable_passes(options, *args.disable_pass)
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
        return _dispatch(args, options, args.cards, args.jobs or 1)
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
        backend = get_backend(options.backend)
        print(backend.make_device(backend.default_config()).describe())
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

    experiment = EXPERIMENTS[args.command]
    result = experiment(options, cards, jobs)
    text, checks = result.render(), result.checks()
    print(f"== {experiment.title} ==")
    print(text)
    print()
    for check in checks:
        print(check)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
