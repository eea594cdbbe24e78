"""ValidatePass: the graph's one check, before anything runs.

The IR contract (see :meth:`repro.synapse.graph.Graph.validate`) is
what every later pass assumes: valid shapes, single static assignment
and values produced before use. Graph construction only appends, so
this gives one clear error instead of a corrupted schedule later.
"""

from __future__ import annotations

from .base import CompilerPass
from .state import CompilationState


class ValidatePass(CompilerPass):
    """Check the input graph's SSA/program-order invariants."""

    name = "validate"
    option_flag = "validate_graph"
    # SSA + program order read connectivity and value kinds only, so
    # a batch/seq re-record replays them; ``replay`` checks shapes
    signature_deps = ("structure",)
    incremental = True

    def run(self, state: CompilationState) -> dict:
        """Raise :class:`~repro.util.errors.GraphError` on a bad graph."""
        state.graph.validate()
        return {"values": len(state.graph.values)}

    def record(self, state: CompilationState) -> dict:
        """Only successful validations are cached (failures raise)."""
        return {"values": len(state.graph.values)}

    def replay(self, state: CompilationState, payload: dict) -> dict:
        """A structurally identical graph has valid SSA and order: check
        only its shapes."""
        state.graph.check_shapes()
        return dict(payload)
