"""CollectiveInjectionPass: bucketed gradient all-reduce for DDP.

Runs after emission. The optimizer marked every parameter gradient on
the graph (``graph.metadata["gradients"]``); this pass partitions those
values into size-bounded buckets — in *producer retirement order*, i.e.
the order backward compute finishes them — and inserts one ``all_reduce``
NIC op per bucket immediately after the bucket's last producer. Each
collective therefore becomes ready as soon as its gradients exist,
letting the multi-card runtime overlap communication with the
remaining backward compute, exactly the mechanism DDP implementations
use. With ``comm_overlap`` off everything lands in one bucket behind
the final gradient — the naive sequential step the analytic
``data_parallel_step_time_us`` models.

The injected schedule is card-count independent (bucketing depends on
``bucket_mb``, not the population), so one compiled recipe serves every
HLS-1 size and the recipe cache keeps hitting across an A4 sweep.
"""

from __future__ import annotations

from ...util.units import MIB
from ..ops import work_item_for
from ..schedule import ScheduledOp
from .base import CompilerPass
from .state import CompilationState


class CollectiveInjectionPass(CompilerPass):
    """Insert bucketed all-reduce ops over marked parameter gradients."""

    name = "collective_injection"
    option_flag = "inject_collectives"

    def run(self, state: CompilationState) -> dict:
        assert state.ops is not None, "emission must run before injection"
        gradients = state.graph.gradients()
        if not gradients:
            return {"transforms": 0, "buckets": 0, "gradient_bytes": 0}

        # Weight gradients the tensor_parallel pass sharded live at
        # 1/tp size per card, so their DP all-reduce moves 1/tp bytes.
        tp_info = state.stats.get("tensor_parallel") or {}
        tp = int(tp_info.get("tp", 1) or 1)
        shard_vids: set[int] = (
            set(tp_info.get("shard_vids", ())) if tp > 1 else set()
        )

        # Resolve marked vids to their storage (fusion stores
        # alias-resolved vids in reads/writes) and to the schedule index
        # that produces them.
        producer_of: dict[int, int] = {}
        for op in state.ops:
            for vid in op.writes:
                producer_of[vid] = op.index
        grads: list[tuple[int, int, int]] = []  # (producer idx, vid, nbytes)
        seen: set[int] = set()
        for vid, _name in gradients:
            storage = state.alias.get(vid, vid)
            idx = producer_of.get(storage)
            if idx is None or storage in seen:
                continue  # not produced on-device (or duplicate alias)
            seen.add(storage)
            nbytes = state.graph.value(storage).nbytes
            if storage in shard_vids:
                nbytes //= tp
            grads.append((idx, storage, nbytes))
        if not grads:
            return {"transforms": 0, "buckets": 0, "gradient_bytes": 0}
        grads.sort()

        # Bucket in retirement order; a new bucket starts when the cap
        # would overflow or the dtype changes (a collective reduces one
        # homogeneous buffer). Overlap off = one unbounded bucket.
        cap = (
            state.options.bucket_mb * MIB
            if state.options.comm_overlap
            else float("inf")
        )
        buckets: list[list[tuple[int, int, int]]] = []
        bucket: list[tuple[int, int, int]] = []
        bucket_bytes = 0
        bucket_dtype = None
        for idx, vid, nbytes in grads:
            dtype = state.graph.value(vid).dtype
            if bucket and (bucket_bytes + nbytes > cap or dtype != bucket_dtype):
                buckets.append(bucket)
                bucket, bucket_bytes = [], 0
            bucket.append((idx, vid, nbytes))
            bucket_bytes += nbytes
            bucket_dtype = dtype
        buckets.append(bucket)

        # Each bucket's all-reduce is anchored right after its last
        # producer. One forward rebuild suffices: deps always point
        # backward, so the index map is complete whenever it is read.
        # Ops arrive indexed by position. Before the first anchor the
        # map is the identity and those ops are kept as they are; past
        # it the map is increasing, so an op's (sorted, unique) deps
        # mapped in order stay sorted and unique, and only a reader of
        # a bucketed gradient gains a dep to merge.
        anchored: dict[int, list[list[tuple[int, int, int]]]] = {}
        for b in buckets:
            anchored.setdefault(max(i for i, _, _ in b), []).append(b)
        first = min(anchored)
        new_ops: list[ScheduledOp] = state.ops[:first]
        index_map = list(range(first))  # old index -> new index
        coll_for_vid: dict[int, int] = {}
        n_collectives = 0
        for op in state.ops[first:]:
            old_index = op.index
            new_index = len(new_ops)
            index_map.append(new_index)
            if new_index != old_index:
                op.index = new_index
                deps = tuple([index_map[d] for d in op.deps])
                if not coll_for_vid.keys().isdisjoint(op.reads):
                    # a later reader of a bucketed gradient (the
                    # optimizer) waits for the reduced value
                    deps = tuple(sorted({*deps, *(
                        coll_for_vid[v] for v in op.reads
                        if v in coll_for_vid
                    )}))
                op.deps = deps
            new_ops.append(op)
            for b in anchored.get(old_index, ()):
                vids = [v for _, v, _ in b]
                elems = sum(
                    state.graph.value(v).numel // (tp if v in shard_vids else 1)
                    for v in vids
                )
                item = work_item_for(
                    "all_reduce", [(elems,)], (elems,),
                    state.graph.value(vids[0]).dtype, {},
                    label=f"all_reduce:bucket{n_collectives}",
                )
                coll = ScheduledOp(
                    index=len(new_ops),
                    label=f"all_reduce:bucket{n_collectives}",
                    engine=state.backend.collective_engine,
                    items=(item,),
                    deps=tuple(sorted(index_map[i] for i, _, _ in b)),
                    src="all_reduce",
                    scope="ddp",
                    reads=tuple(sorted(vids)),
                    writes=(),  # in-place reduction over the gradients
                )
                new_ops.append(coll)
                for v in vids:
                    coll_for_vid[v] = coll.index
                n_collectives += 1
        state.ops = new_ops

        total_bytes = sum(nb for _, _, nb in grads)
        state.stats["collectives"] = n_collectives
        state.stats["gradient_bytes"] = total_bytes
        return {
            "transforms": n_collectives,
            "buckets": n_collectives,
            "gradients": len(grads),
            "gradient_bytes": total_bytes,
        }
