"""Table 1 experiment: operation -> compute-engine mapping.

"We perform detailed profiling to obtain the operation-compute engine
mapping" (§3.2). The probe records each torch-level operation through
the frontend, compiles the one-op graph, and reads back which engine
the GraphCompiler scheduled it on. The finding to reproduce: only
matrix multiplication reaches the MME; even ``scalar * tensor`` runs
on the TPC.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import ht
from ..ht import functional as F
from ..hw.costmodel import EngineKind
from ..synapse import CompilerOptions, GraphCompiler
from ..util.tabulate import render_table
from ..util.validation import check_backend
from .reference import TABLE1_ROWS, ShapeCheck


@dataclass(frozen=True)
class OpMappingRow:
    """One probed operation."""

    torch_name: str
    op: str
    engine: str
    expected: str

    @property
    def matches_paper(self) -> bool:
        """Whether the probe landed on the paper's engine."""
        return self.engine == self.expected


def _probe(op_name: str, options: CompilerOptions) -> str:
    """Record a single-op graph and return its scheduled engine."""
    shape = (64, 64)
    with ht.record(f"probe-{op_name}", mode="symbolic") as rec:
        x = ht.input_tensor(shape, name="x")
        y = ht.input_tensor(shape, name="y")
        if op_name == "matmul":
            F.matmul(x, y)
        elif op_name in ("add", "sub", "mul", "div", "maximum"):
            F.apply_op(op_name, [x, y])
        elif op_name == "smul":
            F.mul_scalar(x, 2.0)
        elif op_name == "sadd":
            F.add_scalar(x, 2.0)
        elif op_name == "spow":
            F.pow_scalar(x, 2.0)
        else:
            F.apply_op(op_name, [x])
    # compile without fusion so the single probed op stays identifiable
    schedule = GraphCompiler(
        options=replace(options, fuse_elementwise=False, insert_dma=False)
    ).compile(rec.graph)
    compute_ops = [
        s for s in schedule.ops
        if s.engine in (EngineKind.MME, EngineKind.TPC)
    ]
    assert len(compute_ops) == 1, f"probe for {op_name} produced {schedule.ops}"
    return compute_ops[0].engine.value


@dataclass
class OpMappingResult:
    """The reproduced Table 1."""

    rows: list[OpMappingRow]

    def checks(self) -> list[ShapeCheck]:
        """One check per probed row."""
        return [
            ShapeCheck(
                f"table1: {row.torch_name} -> {row.expected}",
                row.matches_paper,
                row.engine,
                row.expected,
            )
            for row in self.rows
        ]

    def all_match(self) -> bool:
        """Whether every probe agrees with the paper."""
        return all(row.matches_paper for row in self.rows)

    def render(self) -> str:
        """Paper-style table text."""
        return render_table(
            ["Operation", "Explanation (ours)", "Mapping", "Paper"],
            [(r.torch_name, r.op, r.engine, r.expected) for r in self.rows],
            title="Table 1: Operation-Hardware Mapping via SynapseAI (reproduced)",
        )


def run_op_mapping(options: CompilerOptions | None = None) -> OpMappingResult:
    """Run the full Table 1 probe set (Gaudi's MME/TPC split)."""
    options = options or CompilerOptions()
    check_backend("the Table 1 op mapping", options.backend, ("gaudi",))
    rows = [
        OpMappingRow(torch_name, op_name, _probe(op_name, options), expected)
        for torch_name, op_name, expected in TABLE1_ROWS
    ]
    return OpMappingResult(rows)
