"""Graph linter: catch performance smells before profiling.

The paper's §4 insights are, in effect, lint rules ("use basic ops",
"make work matmul-shaped"). This linter walks a recorded graph and
flags what a Gaudi performance engineer would circle in review:

* mixed-dtype op inputs (hidden casts / broken MME eligibility),
* ops the compiler must recompile for (GLU),
* TPC-heavy FLOP balance (most arithmetic *not* reaching the MME),
* physical transposes that could often be folded into matmul flags,
* reductions over short axes (worst-case SIMD efficiency, §3.3),
* values produced and never consumed (dead compute),
* row-sliced subgraphs (``tpc_slicing`` pass) whose ``assemble_rows``
  does not stitch the slices back into the original tensor,
* fused-softmax trios (``attention_lowering="fused"``) that do not
  consume/produce the same values as the naive softmax they replace,
* ``windowed_attention`` ops that fail to declare their sliding-window
  mask (schedule lint then checks the band's coverage).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.costmodel import EngineKind, OpClass
from .graph import Graph
from .ops import op as op_def

SHORT_REDUCTION_AXIS = 32
TPC_FLOPS_SHARE_WARN = 0.5


@dataclass(frozen=True)
class LintWarning:
    """One finding; ``rule`` is stable for filtering/tests."""

    rule: str
    message: str
    node_id: int | None = None

    def __str__(self) -> str:
        where = f" (node {self.node_id})" if self.node_id is not None else ""
        return f"[{self.rule}]{where} {self.message}"


def _check_slice_reassembly(graph, node, producer_of) -> list[LintWarning]:
    """Verify an ``assemble_rows`` node reconstitutes one whole tensor.

    Each branch feeding the reassembly is walked upstream (stopping at
    graph inputs and at other ``assemble_rows`` nodes, which reset
    slice bounds) to the ``slice_rows`` nodes that carved its rows.
    A correct slicing leaves exactly one ``[lo, hi)`` window per
    branch, the windows tile ``[0, rows)`` contiguously in ascending
    order, and every branch output carries exactly its window's rows.
    """
    warnings: list[LintWarning] = []

    def bounds_of(vid) -> set[tuple[int, int]]:
        found: set[tuple[int, int]] = set()
        stack, seen = [vid], set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            producer = producer_of.get(v)
            if producer is None or producer.op == "assemble_rows":
                continue
            if producer.op == "slice_rows":
                found.add((producer.attrs["lo"], producer.attrs["hi"]))
                continue
            stack.extend(producer.inputs)
        return found

    windows: list[tuple[int, int]] = []
    for vid in node.inputs:
        branch = bounds_of(vid)
        if len(branch) != 1:
            warnings.append(LintWarning(
                "slice-reassembly",
                f"assemble_rows branch (value {vid}) traces to "
                f"{sorted(branch) or 'no'} slice_rows windows, expected "
                "exactly one",
                node.nid,
            ))
            return warnings
        (window,) = branch
        rows = graph.value(vid).shape[-2]
        if rows != window[1] - window[0]:
            warnings.append(LintWarning(
                "slice-reassembly",
                f"assemble_rows branch (value {vid}) has {rows} rows but "
                f"its slice window {window} spans {window[1] - window[0]}",
                node.nid,
            ))
        windows.append(window)

    expect_lo = 0
    for lo, hi in windows:
        if lo != expect_lo:
            warnings.append(LintWarning(
                "slice-reassembly",
                f"assemble_rows windows {windows} do not tile rows "
                f"contiguously from 0 (gap or overlap at {lo})",
                node.nid,
            ))
            return warnings
        expect_lo = hi
    out_rows = graph.value(node.output).shape[-2]
    if expect_lo != out_rows:
        warnings.append(LintWarning(
            "slice-reassembly",
            f"assemble_rows windows cover [0, {expect_lo}) but the "
            f"output declares {out_rows} rows",
            node.nid,
        ))
    return warnings


def _check_fused_softmax_cone(graph, node, producer_of) -> list[LintWarning]:
    """Verify a fused-softmax trio consumes/produces the naive cone's
    values: ``softmax_norm`` must normalize an ``exp_basis_mm`` that
    exponentiates a ``softmax_shift``, all three over the same shape and
    axis — anything else computes a different tensor than the naive
    ``softmax`` the ``attention_lowering`` pass replaced."""
    warnings: list[LintWarning] = []
    exp = producer_of.get(node.inputs[0])
    if exp is None or exp.op != "exp_basis_mm":
        got = exp.op if exp is not None else "a graph input"
        warnings.append(LintWarning(
            "fused-softmax-cone",
            f"softmax_norm consumes {got}, expected the exp_basis_mm "
            "stage of the fused trio",
            node.nid,
        ))
        return warnings
    shift = producer_of.get(exp.inputs[0])
    if shift is None or shift.op != "softmax_shift":
        got = shift.op if shift is not None else "a graph input"
        warnings.append(LintWarning(
            "fused-softmax-cone",
            f"exp_basis_mm consumes {got}, expected the softmax_shift "
            "stage of the fused trio",
            exp.nid,
        ))
        return warnings
    cone_in = graph.value(shift.inputs[0]).shape
    cone_out = graph.value(node.output).shape
    if cone_in != cone_out:
        warnings.append(LintWarning(
            "fused-softmax-cone",
            f"fused softmax maps shape {cone_in} to {cone_out}; the "
            "naive cone it replaces is shape-preserving",
            node.nid,
        ))
    axes = {n.attrs.get("axis", -1) for n in (shift, exp, node)}
    if len(axes) > 1:
        warnings.append(LintWarning(
            "fused-softmax-cone",
            f"fused softmax stages disagree on the reduction axis "
            f"{sorted(axes, key=repr)}",
            node.nid,
        ))
    return warnings


def lint_graph(graph: Graph) -> list[LintWarning]:
    """Run every rule; returns warnings in graph order."""
    graph.validate()
    warnings: list[LintWarning] = []
    consumed = {vid for node in graph.nodes for vid in node.inputs}
    producer_of = {node.output: node for node in graph.nodes}

    mme_flops = 0.0
    tpc_flops = 0.0
    for node in graph.nodes:
        opdef = op_def(node.op)
        in_values = [graph.value(v) for v in node.inputs]
        out_value = graph.value(node.output)

        dtypes = {v.dtype for v in in_values if v.numel > 0}
        if len(dtypes) > 1:
            warnings.append(LintWarning(
                "mixed-dtype",
                f"{node.op} mixes input dtypes "
                f"{sorted(d.value for d in dtypes)}",
                node.nid,
            ))

        if not opdef.supported:
            warnings.append(LintWarning(
                "recompile",
                f"{node.op} is poorly supported by SynapseAI and will "
                "trigger a host recompilation (see Fig 7's GLU)",
                node.nid,
            ))

        if opdef.op_class is OpClass.COLLECTIVE:
            coll_dtypes = {v.dtype for v in in_values}
            if len(coll_dtypes) > 1:
                warnings.append(LintWarning(
                    "collective-dtype",
                    f"{node.op} inputs mix dtypes "
                    f"{sorted(d.value for d in coll_dtypes)}: a collective "
                    "reduces one homogeneous buffer on every card",
                    node.nid,
                ))
            counts = {v.numel for v in in_values}
            if len(counts) > 1:
                warnings.append(LintWarning(
                    "collective-payload",
                    f"{node.op} inputs disagree on element count "
                    f"{sorted(counts)}: every card must contribute the "
                    "same payload",
                    node.nid,
                ))
            num_cards = node.attrs.get("num_cards")
            if (
                node.op == "all_gather"
                and isinstance(num_cards, int)
                and num_cards >= 1
                and in_values
                and out_value.numel != num_cards * in_values[0].numel
            ):
                warnings.append(LintWarning(
                    "collective-payload",
                    f"all_gather output has {out_value.numel} elements, "
                    f"expected num_cards ({num_cards}) x per-card "
                    f"{in_values[0].numel}",
                    node.nid,
                ))
            if (
                node.op == "reduce_scatter"
                and isinstance(num_cards, int)
                and num_cards >= 1
                and in_values
                and out_value.numel * num_cards != in_values[0].numel
            ):
                warnings.append(LintWarning(
                    "collective-payload",
                    f"reduce_scatter output has {out_value.numel} "
                    f"elements, expected per-card {in_values[0].numel} / "
                    f"num_cards ({num_cards})",
                    node.nid,
                ))
            if (
                node.op in ("send", "recv")
                and in_values
                and out_value.numel != in_values[0].numel
            ):
                warnings.append(LintWarning(
                    "collective-payload",
                    f"{node.op} output has {out_value.numel} elements "
                    f"but the wire payload is {in_values[0].numel}: "
                    "point-to-point transfers preserve the buffer",
                    node.nid,
                ))

        if node.op == "assemble_rows":
            warnings.extend(
                _check_slice_reassembly(graph, node, producer_of)
            )

        if node.op == "softmax_norm":
            warnings.extend(
                _check_fused_softmax_cone(graph, node, producer_of)
            )

        if node.op == "windowed_attention":
            window = node.attrs.get("window")
            if node.attrs.get("mask") != "sliding_window":
                warnings.append(LintWarning(
                    "windowed-mask",
                    f"{node.op} does not declare mask='sliding_window'; "
                    "schedule lint cannot check the band's coverage "
                    "without the declared mask kind",
                    node.nid,
                ))
            elif not isinstance(window, int) or window < 1:
                warnings.append(LintWarning(
                    "windowed-mask",
                    f"{node.op} declares a sliding-window mask but its "
                    f"window attr is {window!r} (need an int >= 1)",
                    node.nid,
                ))

        if node.op == "transpose":
            consumers = [
                n for n in graph.nodes if node.output in n.inputs
            ]
            if consumers and all(n.op == "matmul" for n in consumers):
                warnings.append(LintWarning(
                    "foldable-transpose",
                    "physical transpose feeds only matmuls; use the "
                    "matmul transpose flags and keep the data in place",
                    node.nid,
                ))

        if opdef.op_class is OpClass.REDUCTION:
            axis = node.attrs.get("axis")
            if isinstance(axis, int):
                length = in_values[0].shape[axis]
                if length < SHORT_REDUCTION_AXIS:
                    warnings.append(LintWarning(
                        "short-reduction",
                        f"{node.op} reduces an axis of length {length}: "
                        "horizontal combines dominate on the SIMD TPC "
                        "(section 3.3)",
                        node.nid,
                    ))

        # rough FLOP split for the balance rule
        numel = out_value.numel
        if opdef.op_class is OpClass.MATMUL:
            if opdef.work_item_fn is not None:
                # kernel-pack ops (exp_basis_mm, windowed/flash
                # attention): their GEMM twin depends on attrs, not the
                # two-operand matmul form — and windowed runs on the TPC
                from .ops import work_item_for

                item = work_item_for(
                    node.op, [v.shape for v in in_values],
                    out_value.shape, out_value.dtype, node.attrs,
                    opdef=opdef,
                )
                if opdef.engine is EngineKind.MME:
                    mme_flops += item.flops
                else:
                    tpc_flops += item.flops
            else:
                from .ops import matmul_spec

                _, dims = matmul_spec(
                    in_values[0].shape, in_values[1].shape, node.attrs
                )
                mme_flops += dims.flops
        elif opdef.op_class in (OpClass.ELEMENTWISE, OpClass.SPECIAL,
                                OpClass.REDUCTION):
            tpc_flops += numel * opdef.flops_per_element

    produced = {node.output for node in graph.nodes}
    dead = produced - consumed
    # terminal values are the graph's outputs; "dead" only when there
    # is more than one terminal and some carry no name (accidental)
    if len(dead) > 1:
        unnamed = [vid for vid in dead if not graph.value(vid).name]
        for vid in sorted(unnamed)[1:]:
            producer = next(n for n in graph.nodes if n.output == vid)
            warnings.append(LintWarning(
                "dead-value",
                f"{producer.op} produces value {vid} that nothing "
                "consumes; dead compute still burns engine time",
                producer.nid,
            ))

    total = mme_flops + tpc_flops
    if total > 0 and tpc_flops / total > TPC_FLOPS_SHARE_WARN:
        warnings.append(LintWarning(
            "tpc-heavy",
            f"{tpc_flops / total:.0%} of arithmetic maps to the TPC "
            "(~7x slower than the MME, Table 2); restructure toward "
            "matmuls (section 4 insight #3)",
        ))
    return warnings


def lint_schedule(schedule) -> list[LintWarning]:
    """Lint a *planned* schedule: memory-planner output invariants.

    Mirrors the ``slice-reassembly`` rule at the schedule level — the
    planner's rewrites must tile the original computation exactly:

    * ``recompute-segment`` — a value written more than once by
      compute ops must be re-materialized by clones of the *same*
      graph nodes reading the *same* values; anything else recomputes
      a different tensor than was dropped.
    * ``spill-pairing`` — every ``spill_in`` restore must pair with a
      ``spill_out`` offload of the same value and byte count, and the
      value must not be read while it sits off-device.
    * ``window-coverage`` — every scheduled ``windowed_attention`` must
      carry the declared sliding-window mask, and the band must be a
      strict subset of the score matrix: a window at least the key
      count silently degrades to full attention at banded-kernel cost.
    """
    warnings: list[LintWarning] = []

    compute_writers: dict[int, list] = {}
    for op in schedule.ops:
        if op.node_ids:
            for vid in op.writes:
                compute_writers.setdefault(vid, []).append(op)
    for vid, writers in compute_writers.items():
        if len(writers) < 2:
            continue
        first = writers[0]
        for later in writers[1:]:
            if later.node_ids != first.node_ids:
                warnings.append(LintWarning(
                    "recompute-segment",
                    f"value {vid} is re-materialized by op "
                    f"{later.index} ({later.label!r}) replaying nodes "
                    f"{later.node_ids}, but the original writer "
                    f"replays {first.node_ids} — the recompute does "
                    "not tile the dropped segment",
                    later.index,
                ))
            elif later.reads != first.reads:
                warnings.append(LintWarning(
                    "recompute-segment",
                    f"value {vid} is recomputed by op {later.index} "
                    f"({later.label!r}) from reads {later.reads}, but "
                    f"the original writer read {first.reads}",
                    later.index,
                ))

    spill_outs: dict[int, list] = {}
    for op in schedule.ops:
        if op.src == "spill" and op.reads and not op.writes:
            spill_outs.setdefault(op.reads[0], []).append(op)
    for op in schedule.ops:
        if op.src != "spill" or not op.writes:
            continue
        vid = op.writes[0]
        outs = [
            o for o in spill_outs.get(vid, ())
            if o.index in op.deps and o.index < op.index
        ]
        if not outs:
            warnings.append(LintWarning(
                "spill-pairing",
                f"spill_in restores value {vid} (op {op.index}) with "
                "no paired spill_out among its dependencies",
                op.index,
            ))
            continue
        out = max(outs, key=lambda o: o.index)
        moved_out = sum(i.bytes_read + i.bytes_written for i in out.items)
        moved_in = sum(i.bytes_read + i.bytes_written for i in op.items)
        if moved_out != moved_in:
            warnings.append(LintWarning(
                "spill-pairing",
                f"spill pair for value {vid} moves {moved_out} bytes "
                f"out but {moved_in} bytes back",
                op.index,
            ))
        for between in schedule.ops[out.index + 1:op.index]:
            if vid in between.reads:
                warnings.append(LintWarning(
                    "spill-pairing",
                    f"op {between.index} ({between.label!r}) reads "
                    f"value {vid} while it is spilled out "
                    f"(ops {out.index}..{op.index})",
                    between.index,
                ))

    graph = getattr(schedule, "graph", None)
    if graph is not None:
        for node in graph.nodes:
            if node.op != "windowed_attention":
                continue
            window = node.attrs.get("window")
            if (
                node.attrs.get("mask") != "sliding_window"
                or not isinstance(window, int) or window < 1
            ):
                warnings.append(LintWarning(
                    "window-coverage",
                    "scheduled windowed_attention lacks a well-formed "
                    f"sliding-window declaration (mask="
                    f"{node.attrs.get('mask')!r}, window={window!r})",
                    node.nid,
                ))
                continue
            keys = graph.value(node.inputs[1]).shape[-2]
            if window >= keys:
                warnings.append(LintWarning(
                    "window-coverage",
                    f"window {window} >= key count {keys}: the band "
                    "covers the whole score matrix — this is full "
                    "attention at banded-kernel prices; use the flash "
                    "or naive lowering instead",
                    node.nid,
                ))
    return warnings


#: source tokens that betray a pass reading geometry (shapes, byte
#: counts, or node attributes — which embed extents; see
#: :func:`~repro.synapse.recipe.signatures`)
_GEOMETRY_TOKENS = (
    ".shape", ".numel", ".nbytes", ".attrs", "work_item_for",
    "lower_graph", "itemsize",
)

#: source tokens that betray a pass hardcoding the Gaudi backend —
#: engine members, the Gaudi device config, or its sub-configs. Since
#: the backend abstraction (PR-10), passes must route placement and
#: pricing through ``state.backend`` (``engine_for``, ``cost_model``,
#: the engine-role attributes) so the same pipeline serves every
#: registered backend.
_BACKEND_TOKENS = (
    "EngineKind.", "GaudiConfig", "CostModel(",
    ".config.mme", ".config.tpc", ".config.hbm", ".config.dma",
)


def lint_passes(passes=None) -> list[LintWarning]:
    """Audit compiler passes' incremental-recompilation declarations.

    Keeps the pass cache honest as new passes land (see
    :mod:`repro.synapse.passes.incremental`):

    * ``pass-geometry-over-declared`` — the pass declares geometry
      dependence but its ``run`` reads only shape-invariant fields;
      its results would be needlessly recomputed at every batch/seq
      sweep point.
    * ``pass-geometry-under-declared`` — the inverse, and the
      dangerous one: ``run`` touches shapes/byte counts/attributes but
      the pass declares structure-only, so cached results could be
      replayed against a graph they do not describe.
    * ``pass-backend-coupled`` — the pass's ``run`` names
      ``EngineKind`` members, ``GaudiConfig``, or Gaudi sub-config
      fields directly instead of asking ``state.backend``; such a pass
      silently mis-places or mis-prices work on every other backend.

    The scan is lexical over the ``run`` source plus the sources of
    the helpers it directly calls (one level — deliberately not the
    helpers' helpers, which is where replay-side geometry
    *recomputation* lives; what matters is what the cached decision
    itself reads).
    """
    import inspect
    import re
    import sys

    from .passes import default_passes

    def sources_of(compiler_pass) -> str:
        cls = type(compiler_pass)
        try:
            run_src = inspect.getsource(cls.run)
        except (OSError, TypeError):  # pragma: no cover - REPL-defined pass
            return ""
        pieces = [run_src]
        module = sys.modules.get(cls.__module__)
        namespace = dict(getattr(module, "__dict__", {}))
        namespace.update(cls.__dict__)
        for called in set(re.findall(r"(\w+)\s*\(", run_src)):
            target = namespace.get(called)
            if target is None or not callable(target):
                continue
            if getattr(target, "__module__", None) != cls.__module__:
                continue
            try:
                pieces.append(inspect.getsource(target))
            except (OSError, TypeError):  # pragma: no cover - builtins
                continue
        return "\n".join(pieces)

    warnings: list[LintWarning] = []
    for compiler_pass in passes if passes is not None else default_passes():
        source = sources_of(compiler_pass)
        if not source:  # pragma: no cover - source unavailable
            continue
        reads_geometry = any(tok in source for tok in _GEOMETRY_TOKENS)
        declares_geometry = "geometry" in compiler_pass.signature_deps
        if declares_geometry and not reads_geometry:
            warnings.append(LintWarning(
                "pass-geometry-over-declared",
                f"pass {compiler_pass.name!r} declares geometry "
                "dependence but its run() reads only shape-invariant "
                "fields; declare signature_deps=('structure',) so "
                "sweep points that change only batch/seq can reuse it",
            ))
        elif reads_geometry and not declares_geometry:
            warnings.append(LintWarning(
                "pass-geometry-under-declared",
                f"pass {compiler_pass.name!r} reads geometry "
                "(shapes/bytes/attrs) in run() but declares "
                "structure-only signature_deps — cached results could "
                "replay against graphs they do not describe",
            ))
        coupled = [tok for tok in _BACKEND_TOKENS if tok in source]
        if coupled:
            warnings.append(LintWarning(
                "pass-backend-coupled",
                f"pass {compiler_pass.name!r} hardcodes the Gaudi "
                f"backend in run() ({', '.join(sorted(coupled))}); "
                "route engine placement and pricing through "
                "state.backend instead",
            ))
    return warnings


def render_warnings(warnings: list[LintWarning]) -> str:
    """Human-readable lint report."""
    if not warnings:
        return "lint: clean (no findings)"
    lines = [f"lint: {len(warnings)} finding(s)"]
    lines.extend(f"  {w}" for w in warnings)
    return "\n".join(lines)
