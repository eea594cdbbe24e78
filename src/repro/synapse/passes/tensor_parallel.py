"""TensorParallelPass: Megatron-style weight-matmul sharding.

Runs after emission, before collective injection. With ``tp > 1``
every 2-D-parameter matmul splits across the ``tp`` cards of a
tensor-parallel group, column-parallel over the weight's out-features
axis:

* **forward** (``x @ W``) — each card multiplies against its 1/tp
  column shard and contributes its output slice to an injected
  ``all_gather`` (scope ``"tp"``), so downstream ops see the full
  activation;
* **input gradient** (``dY @ W^T``) — each card contracts its weight
  shard against its slice of the output gradient, producing a partial
  sum finished by an injected ``all_reduce``;
* **weight gradient** (``x^T @ dY``) — shards naturally along the same
  out-features axis; no collective, but the gradient value is marked
  in ``stats["tensor_parallel"]["shard_vids"]`` so the downstream
  data-parallel bucketing prices it at 1/tp of its bytes.

Only the *cost model* shards: graph numerics are untouched (injected
NIC ops carry no ``node_ids``, so the executor skips them, and sharded
``WorkItem`` geometry never feeds the eager computes) — the sharded
schedule is numerics-byte-identical to the unsharded one by
construction, which the property suite asserts. Matmuls whose sharded
axes do not divide by ``tp`` (or that read no 2-D parameter) stay
replicated and are priced at full size on every card.
"""

from __future__ import annotations

from ..ops import work_item_for
from ..schedule import ScheduledOp
from .base import CompilerPass
from .state import CompilationState


def _shard(shape: tuple, axis: int, tp: int) -> tuple | None:
    """``shape`` with ``axis`` divided by ``tp``; None if indivisible."""
    dims = list(shape)
    if dims[axis] % tp:
        return None
    dims[axis] = dims[axis] // tp
    return tuple(dims)


class TensorParallelPass(CompilerPass):
    """Shard weight matmuls over the TP group; inject TP collectives."""

    name = "tensor_parallel"
    option_flag = "tp"
    option_deps = ("tp",)

    def enabled(self, options) -> bool:
        """On only for a real group (``tp`` is an int, not a bool)."""
        return int(getattr(options, self.option_flag, 1) or 0) > 1

    def run(self, state: CompilationState) -> dict:
        assert state.ops is not None, "emission must run before sharding"
        tp = int(state.options.tp)
        graph = state.graph
        node_of = {node.nid: node for node in graph.nodes}
        grad_storage = {
            state.alias.get(vid, vid) for vid, _ in graph.gradients()
        }
        matmul_def = state.opdef("matmul")

        # Decide the sharding of every single-node MME matmul first;
        # the rebuild below then weaves in the collectives.
        plans: dict[int, tuple[ScheduledOp, str | None]] = {}
        shard_vids: list[int] = []
        sharded = 0
        for op in state.ops:
            if (
                op.engine is not state.backend.matmul_engine
                or len(op.node_ids) != 1
            ):
                continue
            node = node_of.get(op.node_ids[0])
            if node is None or node.op != "matmul":
                continue
            a = graph.value(node.inputs[0])
            b = graph.value(node.inputs[1])
            out = graph.value(node.output)
            ta = bool(node.attrs.get("transpose_a"))
            tb = bool(node.attrs.get("transpose_b"))
            out_storage = state.alias.get(node.output, node.output)

            new_a = a.shape
            new_b = b.shape
            new_out = out.shape
            coll: str | None = None
            if b.kind == "param" and len(b.shape) == 2:
                if not tb:
                    # column-parallel forward: shard W's out-features
                    # (n) axis and the output slice; gather after
                    new_b = _shard(b.shape, -1, tp)
                    new_out = _shard(out.shape, -1, tp)
                    coll = "all_gather"
                else:
                    # input-gradient matmul contracts over the same
                    # weight axis (k when transposed): partial sums
                    new_b = _shard(b.shape, -1, tp)
                    new_a = _shard(a.shape, -1 if not ta else -2, tp)
                    coll = "all_reduce"
            elif out_storage in grad_storage and len(out.shape) == 2:
                # weight gradient: shards along out-features with no
                # communication; DP bucketing reduces 1/tp per card
                new_out = _shard(out.shape, -1, tp)
                new_b = _shard(b.shape, -2 if tb else -1, tp)
            else:
                continue
            if new_a is None or new_b is None or new_out is None:
                continue  # indivisible: stays replicated at full size

            item = work_item_for(
                "matmul", [new_a, new_b], new_out, out.dtype, node.attrs,
                label=op.items[0].name, opdef=matmul_def,
            )
            shard_op = op.clone()
            shard_op.items = (item,)
            plans[op.index] = (shard_op, coll)
            sharded += 1
            if coll is None:
                shard_vids.append(out_storage)

        if not plans:
            state.stats["tensor_parallel"] = {
                "tp": tp, "sharded_matmuls": 0, "tp_collectives": 0,
                "shard_vids": [],
            }
            return {"transforms": 0, "sharded_matmuls": 0}

        # One forward rebuild: deps point backward, so the index map is
        # complete whenever read; readers of a gathered/reduced output
        # additionally wait on its TP collective.
        index_map: dict[int, int] = {}
        coll_for_vid: dict[int, int] = {}
        new_ops: list[ScheduledOp] = []
        n_collectives = 0
        comm_bytes = 0
        for op in state.ops:
            old_index = op.index
            shard_op, coll = plans.get(old_index, (op, None))
            extra = {
                coll_for_vid[v] for v in shard_op.reads if v in coll_for_vid
            }
            index_map[old_index] = len(new_ops)
            shard_op.index = len(new_ops)
            shard_op.deps = tuple(sorted(
                {*(index_map[d] for d in shard_op.deps), *extra}
            ))
            new_ops.append(shard_op)
            if coll is None:
                continue
            out_vid = shard_op.writes[0] if shard_op.writes else None
            out_value = graph.value(out_vid) if out_vid is not None else None
            if out_value is None:
                continue
            if coll == "all_gather":
                elems = out_value.numel // tp
                item = work_item_for(
                    "all_gather", [(elems,)], (tp, elems), out_value.dtype,
                    {"num_cards": tp},
                    label=f"all_gather:tp{n_collectives}",
                )
            else:
                elems = out_value.numel
                item = work_item_for(
                    "all_reduce", [(elems,)], (elems,), out_value.dtype,
                    {"num_cards": tp},
                    label=f"all_reduce:tp{n_collectives}",
                )
            nic = ScheduledOp(
                index=len(new_ops),
                label=item.name,
                engine=state.backend.collective_engine,
                items=(item,),
                deps=(shard_op.index,),
                src=coll,
                scope="tp",
                reads=(out_vid,),
                writes=(),  # gathers/reduces in place
            )
            new_ops.append(nic)
            coll_for_vid[out_vid] = nic.index
            comm_bytes += item.bytes_read
            n_collectives += 1
        state.ops = new_ops

        state.stats["tensor_parallel"] = {
            "tp": tp,
            "sharded_matmuls": sharded,
            "tp_collectives": n_collectives,
            "tp_comm_bytes": comm_bytes,
            "shard_vids": sorted(shard_vids),
        }
        return {
            "transforms": sharded,
            "sharded_matmuls": sharded,
            "tp_collectives": n_collectives,
        }
