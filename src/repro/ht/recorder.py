"""Recording contexts: the frontend's connection to SynapseAI.

``ht`` executes eagerly (like PyTorch) while *recording* every op into
a :class:`~repro.synapse.graph.Graph` — the program the GraphCompiler
sees. Two modes:

* ``concrete`` — ops also compute numpy values; use for correctness
  work at small sizes.
* ``symbolic`` — shapes only; use at paper scale (seq 2048 x batch 128
  would need >10 GiB per attention matrix otherwise).

Usage::

    with ht.record("layer", mode="symbolic") as rec:
        y = model(x)
        y.sum().backward()
    profile = SynapseProfiler().profile(rec.graph)
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..hw.dtypes import DType
from ..synapse.graph import Graph, TensorValue
from ..util.errors import GraphError
from ..util.gc_pause import gc_paused

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tensor import Parameter, Tensor

_MODES = ("concrete", "symbolic")


@dataclass(slots=True)
class TapeEntry:
    """One recorded differentiable op, for reverse-mode autograd."""

    op: str
    inputs: list["Tensor"]
    output: "Tensor"
    attrs: dict[str, Any] = field(default_factory=dict)


class Recorder:
    """An active recording: graph + tape + scope stack."""

    def __init__(self, name: str = "graph", mode: str = "concrete"):
        if mode not in _MODES:
            raise GraphError(f"mode must be one of {_MODES}, got {mode!r}")
        self.graph = Graph(name)
        self.mode = mode
        self.tape: list[TapeEntry] = []
        self._scopes: list[str] = []
        #: the dotted scope stamped on emitted nodes, e.g.
        #: "encoder0.attn" (kept joined: every op reads it)
        self.scope_path = ""
        self._param_values: dict[int, TensorValue] = {}
        #: src override applied to emitted nodes (used by autograd to
        #: attribute backward ops, e.g. "softmax_bwd")
        self.src_override: str | None = None

    @property
    def concrete(self) -> bool:
        """Whether ops compute numpy values."""
        return self.mode == "concrete"

    @contextlib.contextmanager
    def scope(self, name: str):
        """Push a scope segment for emitted nodes."""
        self._scopes.append(name)
        self.scope_path = ".".join(self._scopes)
        try:
            yield self
        finally:
            self._scopes.pop()
            self.scope_path = ".".join(self._scopes)

    def value_for_param(self, param: "Parameter") -> TensorValue:
        """The graph value backing ``param`` (registered on first use)."""
        key = id(param)
        if key not in self._param_values:
            self._param_values[key] = self.graph.add_value(
                param.shape, param.dtype, name=param.name, kind="param"
            )
        return self._param_values[key]

    def mark_gradient(self, grad: "Tensor", param_name: str = "") -> None:
        """Tag a tensor as a parameter gradient for DDP all-reduce.

        The optimizer marks every ``p.grad`` it reads; the compiler's
        ``collective_injection`` pass buckets the marked values into
        all-reduce ops for multi-card runs. Harmless on 1 card.
        """
        self.graph.mark_gradient(grad.vid, param_name)

    def mark_checkpoint(
        self,
        label: str,
        input_vids: "tuple[int, ...] | list[int]",
        output_vids: "tuple[int, ...] | list[int]",
        droppable_vids: "tuple[int, ...] | list[int]",
    ) -> None:
        """Tag a recorded region as a checkpoint segment.

        The memory planner may drop the segment's internal activations
        and re-emit the forward subgraph before their backward
        consumers (see :func:`repro.ht.checkpoint` for the module-level
        wrapper that computes the vid sets automatically).
        """
        self.graph.mark_checkpoint(
            label, input_vids, output_vids, droppable_vids
        )

    def graph_signature(self) -> str:
        """Canonical signature of the recorded graph so far.

        Re-recording the same program yields the same signature — the
        key the compiler's recipe cache uses to skip recompilation of
        repeated training steps (see :mod:`repro.synapse.recipe`).
        """
        from ..synapse.recipe import graph_signature

        return graph_signature(self.graph)


_STACK: list[Recorder] = []


def current() -> Recorder:
    """The innermost active recorder; raises if none."""
    if not _STACK:
        raise GraphError(
            "no active recording — wrap tensor code in `with ht.record(...):`"
        )
    return _STACK[-1]


def has_active() -> bool:
    """Whether any recorder is active."""
    return bool(_STACK)


@contextlib.contextmanager
def record(name: str = "graph", mode: str = "concrete"):
    """Open a recording context and yield its :class:`Recorder`.

    The body runs under :func:`~repro.util.gc_pause.gc_paused`:
    recording builds nodes and values that hold no reference cycles.
    """
    rec = Recorder(name, mode)
    _STACK.append(rec)
    try:
        with gc_paused():
            yield rec
    finally:
        popped = _STACK.pop()
        assert popped is rec, "recorder stack corrupted"


@contextlib.contextmanager
def scope(name: str):
    """Push a scope segment on the current recorder."""
    with current().scope(name):
        yield


def checkpoint(fn, *args, label: str = "", **kwargs):
    """Run ``fn(*args, **kwargs)`` as a checkpoint segment.

    The activation-checkpointing marker, PyTorch
    ``utils.checkpoint``-style: every activation value ``fn`` records
    (except its outputs) is tagged droppable, licensing the memory
    planner to free it after its last forward use and recompute it
    from the segment inputs right before the backward pass needs it.

    Purely an annotation — eager values, autograd, and the recorded
    graph are unchanged; with no active recorder this is a plain call.
    """
    from .tensor import Tensor

    if not has_active():
        return fn(*args, **kwargs)
    rec = current()
    graph = rec.graph
    input_vids = [a.vid for a in args if isinstance(a, Tensor)]
    first_vid = graph._next_vid
    out = fn(*args, **kwargs)
    outputs = out if isinstance(out, tuple) else (out,)
    output_vids = [t.vid for t in outputs if isinstance(t, Tensor)]
    droppable = [
        vid for vid in range(first_vid, graph._next_vid)
        if vid in graph.values and graph.values[vid].kind == "activation"
    ]
    name = label or getattr(fn, "_name", "") or getattr(
        fn, "__name__", type(fn).__name__
    )
    rec.mark_checkpoint(name, input_vids, output_vids, droppable)
    return out


def default_dtype() -> DType:
    """The frontend's default device dtype."""
    return DType.BF16
