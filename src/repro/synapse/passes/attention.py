"""AttentionLoweringPass: choose the attention/softmax kernel lowering.

The PR-4 scheduler attacked the Fig-4 softmax bubble by reordering work
around the naive cone; this pass attacks it from the *kernel* side
(GFormer, arXiv 2412.19829). ``CompilerOptions.attention_lowering``
selects between:

``naive``
    The identity (default). The graph is left byte-for-byte untouched,
    so existing recipes, traces and caches are unchanged.
``fused``
    Every last-axis ``softmax`` composite becomes the fused trio
    ``softmax_shift`` -> ``exp_basis_mm`` -> ``softmax_norm``: the
    max-subtract and normalize stay on the TPC, the exponential runs as
    a thin-K matmul on the MME
    (:class:`repro.tpc.kernels.fused_softmax.FusedSoftmaxKernel`).
``windowed``
    Full attention cones (QKᵀ -> scale -> [mask] -> softmax -> V)
    collapse into one banded ``windowed_attention`` TPC op over
    ``CompilerOptions.attention_window`` keys
    (:class:`~repro.tpc.kernels.windowed_attention.WindowedAttentionKernel`).
    The op declares its mask (``mask="sliding_window"``) so schedule
    lint can check coverage.
``flash``
    The same cones collapse into one tiled online-softmax
    ``flash_attention`` MME op
    (:class:`~repro.tpc.kernels.flash_attention.FlashAttentionKernel`).
    The O(seq²) score matrix disappears from the graph entirely, so the
    PR-5 liveness planner never sees its interval and the score-matrix
    HBM traffic drops to zero.

The pass runs before ``tpc_slicing``: in naive mode the slicer still
finds its softmax anchors; in the fused/collapsed modes there is no
naive cone left to slice. The option fields are not runtime-only, so
every non-naive choice re-keys both recipe-cache tiers automatically.

Cone matching is conservative: every interior value must have a single
consumer, carry no gradient mark, and sit on no checkpoint boundary —
anything else keeps the naive cone (correctness first).
"""

from __future__ import annotations

from ...util.errors import ConfigError
from ..graph import Graph, Node
from ..lowering import _Rewriter
from ..ops import EXP_OFFLOAD_BASIS
from .base import CompilerPass
from .state import CompilationState

ATTENTION_LOWERINGS = ("naive", "fused", "windowed", "flash")
#: flash tile geometry (matches the mini-ISA kernel's defaults and the
#: cost-model twin's attr defaults)
FLASH_Q_BLOCK = 128
FLASH_K_BLOCK = 128


def _single_consumer(consumers: dict, vid: int) -> Node | None:
    nodes = consumers.get(vid, ())
    return nodes[0] if len(nodes) == 1 else None


def _protected_vids(graph: Graph) -> set[int]:
    """Values a cone rewrite must not swallow: gradient-marked values
    and checkpoint segment boundaries (droppable interiors are fine —
    the survival remap simply filters vanished vids)."""
    protected = {vid for vid, _ in graph.gradients()}
    for _, inputs, outputs, _ in graph.checkpoints():
        protected.update(inputs)
        protected.update(outputs)
    return protected


def find_attention_cones(graph: Graph) -> list[dict]:
    """Match full attention cones, keyed by their final matmul.

    Pattern: ``matmul(transpose_b)`` -> optional ``smul`` -> optional
    ``add`` of a const mask (treated as the causal mask) -> last-axis
    ``softmax`` -> ``matmul`` with the probabilities on the left.
    Returns one dict per cone: the member node ids, the q/k/v input
    vids, the final node, the scale, and causality.
    """
    consumers = graph.consumers()
    protected = _protected_vids(graph)
    cones = []
    for qk in graph.nodes:
        if qk.op != "matmul":
            continue
        if not qk.attrs.get("transpose_b") or qk.attrs.get("transpose_a"):
            continue
        members = [qk]
        cursor = qk
        scale = 1.0
        causal = False
        nxt = _single_consumer(consumers, cursor.output)
        if nxt is not None and nxt.op == "smul":
            scale = float(nxt.attrs.get("alpha", 1.0))
            members.append(nxt)
            cursor = nxt
            nxt = _single_consumer(consumers, cursor.output)
        if nxt is not None and nxt.op == "add":
            other = [v for v in nxt.inputs if v != cursor.output]
            if len(other) == 1 and graph.value(other[0]).kind == "const":
                causal = True
                members.append(nxt)
                cursor = nxt
                nxt = _single_consumer(consumers, cursor.output)
            else:
                continue
        if nxt is None or nxt.op != "softmax":
            continue
        rank = len(graph.value(nxt.output).shape)
        if nxt.attrs.get("axis", -1) not in (-1, rank - 1):
            continue
        members.append(nxt)
        pv = _single_consumer(consumers, nxt.output)
        if (
            pv is None or pv.op != "matmul"
            or pv.inputs[0] != nxt.output
            or pv.attrs.get("transpose_a") or pv.attrs.get("transpose_b")
        ):
            continue
        q_vid, k_vid = qk.inputs
        v_vid = pv.inputs[1]
        q, k, v = (graph.value(x) for x in (q_vid, k_vid, v_vid))
        # the fused op needs exact (non-broadcast) batch agreement and
        # square attention — anything else keeps the naive cone
        if q.shape[:-2] != k.shape[:-2] or q.shape[:-2] != v.shape[:-2]:
            continue
        if q.shape[-2] != k.shape[-2]:
            continue
        if any(n.output in protected for n in members):
            continue
        members.append(pv)
        cones.append({
            "members": members,
            "final": pv,
            "q": q_vid, "k": k_vid, "v": v_vid,
            "scale": scale, "causal": causal,
        })
    return cones


class AttentionLoweringPass(CompilerPass):
    """Rewrite softmax/attention cones per the selected kernel pack."""

    name = "attention_lowering"
    # Always runs; "naive" is the identity, so there is nothing to
    # disable (mirrors the emit stage). The declared option_deps put
    # the kernel choice into every downstream incremental-cache key.
    option_flag = None
    signature_deps = ("structure", "geometry")
    option_deps = ("attention_lowering", "attention_window")

    def run(self, state: CompilationState) -> dict:
        mode = state.options.attention_lowering
        if mode not in ATTENTION_LOWERINGS:
            raise ConfigError(
                f"unknown attention_lowering {mode!r}; choices: "
                f"{', '.join(ATTENTION_LOWERINGS)}"
            )
        window = int(state.options.attention_window)
        if mode == "naive":
            return {"transforms": 0, "mode": mode}
        if mode == "fused":
            return self._rewrite_fused(state)
        return self._rewrite_cones(state, mode, window)

    def _rewrite_fused(self, state: CompilationState) -> dict:
        graph = state.graph
        targets = {
            node.nid for node in graph.nodes
            if node.op == "softmax"
        }
        if not targets:
            return {"transforms": 0, "mode": "fused"}
        rw = _Rewriter(graph)
        for node in graph.nodes:
            if node.nid not in targets:
                rw.copy_node(node)
                continue
            x = rw.map_value(node.inputs[0])
            axis = node.attrs.get("axis", -1)
            src, scope = node.op, node.scope
            shift = rw.emit("softmax_shift", [x], attrs={"axis": axis},
                            src=src, scope=scope)
            e = rw.emit(
                "exp_basis_mm", [shift],
                attrs={"axis": axis, "basis": EXP_OFFLOAD_BASIS},
                src=src, scope=scope,
            )
            out = rw.emit("softmax_norm", [e], attrs={"axis": axis},
                          src=src, scope=scope)
            rw.vmap[node.output] = out.vid
        state.graph = rw.finish()
        return {"transforms": len(targets), "mode": "fused"}

    def _rewrite_cones(self, state: CompilationState, mode: str,
                       window: int) -> dict:
        graph = state.graph
        cones = find_attention_cones(graph)
        if not cones:
            return {"transforms": 0, "mode": mode}
        interior = {
            n.nid for cone in cones for n in cone["members"]
            if n is not cone["final"]
        }
        final = {cone["final"].nid: cone for cone in cones}
        rw = _Rewriter(graph)
        for node in graph.nodes:
            if node.nid in interior:
                continue  # swallowed into the fused op (masks included)
            cone = final.get(node.nid)
            if cone is None:
                rw.copy_node(node)
                continue
            q = rw.map_value(cone["q"])
            k = rw.map_value(cone["k"])
            v = rw.map_value(cone["v"])
            attrs: dict = {"scale": cone["scale"], "causal": cone["causal"]}
            if mode == "windowed":
                op_name = "windowed_attention"
                attrs["window"] = window
                attrs["mask"] = "sliding_window"
            else:
                op_name = "flash_attention"
                attrs["q_block"] = FLASH_Q_BLOCK
                attrs["k_block"] = FLASH_K_BLOCK
            out = rw.emit(op_name, [q, k, v], attrs=attrs,
                          src="softmax", scope=node.scope)
            rw.vmap[node.output] = out.vid
        state.graph = rw.finish()
        return {"transforms": len(cones), "mode": mode}
