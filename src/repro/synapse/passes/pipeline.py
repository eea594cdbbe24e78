"""PipelinePartitionPass: duration-balanced stages + boundary p2p ops.

Runs after collective injection. With ``pp > 1`` the schedule splits
into ``pp`` stages, each living on its own slice of the card pool:

* the **body** — every compute/DMA op plus the TP collectives — is cut
  into ``pp`` contiguous, duration-balanced segments of the emitted
  stream, priced by the same :func:`~repro.synapse.runtime
  .op_duration_us` proxy the runtime uses. The emitted stream is the
  unrolled forward+backward of one microbatch, so a contiguous cut is
  cost-equivalent to a GPipe layer placement for pricing purposes
  (each stage owns a contiguous span of the model's work), without
  pretending to recover layer structure the schedule no longer has;
* the **tail** — the data-parallel gradient all-reduces and everything
  downstream of them (optimizer) — stays resident with the stage that
  produced its inputs (``max`` over dep stages): gradient reduction is
  per-stage in a pipelined run, not a final global phase;
* at each of the ``pp - 1`` boundaries one aggregated ``send``/
  ``recv`` pair carries every value produced at-or-before the cut and
  read after it. Readers on the far side depend on the ``recv``, so
  the point-to-point hop sits on the critical path exactly where the
  activation handoff would.

Stage placement and microbatch count land in ``stats["pipeline"]``
(``stage_of`` aligned with final op indices); the multi-card runtime
re-times the per-stage sub-schedules and composes the GPipe fill/drain
``(m + pp - 1)``-slot timeline from them. Like every NIC op here the
send/recv pairs carry no ``node_ids``, so eager execution skips them
and numerics stay byte-identical to the unpartitioned schedule.
"""

from __future__ import annotations

from ...hw.dtypes import DType, itemsize
from ...util.errors import CompileError
from ..ops import work_item_for
from ..schedule import ScheduledOp
from .base import CompilerPass
from .state import CompilationState


class PipelinePartitionPass(CompilerPass):
    """Split the schedule into ``pp`` stages joined by send/recv ops."""

    name = "pipeline_partition"
    option_flag = "pp"
    option_deps = ("pp", "microbatches")

    def enabled(self, options) -> bool:
        """On only for a real pipeline (``pp`` is an int, not a bool)."""
        return int(getattr(options, self.option_flag, 1) or 0) > 1

    def run(self, state: CompilationState) -> dict:
        from ..runtime import op_duration_us  # no cycle: runtime pulls
        # in the cost model only, never the pass pipeline

        assert state.ops is not None, "emission must run before partition"
        pp = int(state.options.pp)
        microbatches = int(state.options.microbatches)
        if microbatches < pp:
            raise CompileError(
                f"pipeline_partition: microbatches ({microbatches}) must "
                f"be >= pipeline stages ({pp}) to fill the pipeline"
            )
        ops = state.ops
        graph = state.graph

        # The DDP tail (gradient all-reduces + downstream closure,
        # i.e. the optimizer) is placed after the cut, per stage.
        consumers: dict[int, list[int]] = {}
        for op in ops:
            for dep in op.deps:
                consumers.setdefault(dep, []).append(op.index)
        tail: set[int] = set()
        collective_engine = state.backend.collective_engine
        frontier = [
            op.index for op in ops
            if op.engine is collective_engine and op.scope == "ddp"
        ]
        while frontier:
            idx = frontier.pop()
            if idx in tail:
                continue
            tail.add(idx)
            frontier.extend(consumers.get(idx, ()))

        body = [op for op in ops if op.index not in tail]
        if len(body) < pp:
            raise CompileError(
                f"pipeline_partition: schedule has {len(body)} "
                f"partitionable ops, fewer than pp={pp} stages"
            )

        # Contiguous duration-balanced cut of the body stream.
        cost = state.backend.cost_model(state.config)
        durations = [op_duration_us(cost, op) for op in body]
        total = sum(durations)
        stage_of_old: dict[int, int] = {}
        stage = 0
        elapsed = 0.0
        for pos, (op, dur) in enumerate(zip(body, durations)):
            if stage < pp - 1 and elapsed >= total * (stage + 1) / pp:
                stage += 1
            # never let a later stage run out of ops
            stage = max(stage, pp - (len(body) - pos))
            stage_of_old[op.index] = stage
            elapsed += dur
        for op in ops:  # tail: ride with the producing stage
            if op.index in tail:
                stage_of_old[op.index] = max(
                    (stage_of_old[d] for d in op.deps), default=pp - 1
                )

        # Values that must hop boundary b: produced at stage <= b,
        # read at some stage > b.
        producer_stage: dict[int, int] = {}
        last_read_stage: dict[int, int] = {}
        producer_of: dict[int, int] = {}
        for op in ops:
            s = stage_of_old[op.index]
            if op.index not in tail:
                # only body-produced values hop boundaries; the tail's
                # writes (optimizer updates) never feed another stage
                for vid in op.writes:
                    if vid not in producer_of:
                        producer_of[vid] = op.index
                        producer_stage[vid] = s
            for vid in op.reads:
                if vid in producer_of:
                    last_read_stage[vid] = max(
                        last_read_stage.get(vid, 0), s
                    )
        crossing: list[tuple[int, ...]] = [
            tuple(sorted(
                vid for vid, ps in producer_stage.items()
                if ps <= b and last_read_stage.get(vid, 0) > b
            ))
            for b in range(pp - 1)
        ]
        boundary_bytes = [
            sum(graph.value(v).nbytes for v in vids) for vids in crossing
        ]

        # Rebuild: body ops stay in order; one send/recv pair lands at
        # each stage cut; the tail follows with deps remapped onto the
        # recv that delivered its inputs' stage.
        index_map: dict[int, int] = {}
        recv_at: dict[int, int] = {}  # boundary -> recv new index
        new_ops: list[ScheduledOp] = []
        stage_final: list[int] = []

        def _append(op: ScheduledOp, s: int) -> None:
            op.index = len(new_ops)
            new_ops.append(op)
            stage_final.append(s)

        def _boundary(b: int) -> None:
            vids = crossing[b]
            elems = max(1, -(-boundary_bytes[b] // itemsize(DType.FP32)))
            deps = tuple(sorted(
                {index_map[producer_of[v]] for v in vids}
                | ({recv_at[b - 1]} if b - 1 in recv_at else set())
            ))
            send = ScheduledOp(
                index=0, label=f"send:stage{b}",
                engine=collective_engine,
                items=(work_item_for(
                    "send", [(elems,)], (elems,), DType.FP32, {},
                    label=f"send:stage{b}",
                ),),
                deps=deps, src="send", scope="pp", reads=vids,
            )
            _append(send, b)
            recv = ScheduledOp(
                index=0, label=f"recv:stage{b + 1}",
                engine=collective_engine,
                items=(work_item_for(
                    "recv", [(elems,)], (elems,), DType.FP32, {},
                    label=f"recv:stage{b + 1}",
                ),),
                deps=(send.index,), src="recv", scope="pp",
                reads=vids,
            )
            _append(recv, b + 1)
            recv_at[b] = recv.index

        current = 0
        for op in body:
            s = stage_of_old[op.index]
            while current < s:
                _boundary(current)
                current += 1
            clone = op.clone()
            index_map[op.index] = len(new_ops)
            clone.deps = tuple(sorted(
                {index_map[d] for d in op.deps if d in index_map}
                | {
                    recv_at[s - 1] for v in op.reads
                    if s > 0 and producer_stage.get(v, s) < s
                    and (s - 1) in recv_at
                }
            ))
            _append(clone, s)
        while current < pp - 1:  # degenerate: empty trailing stages
            _boundary(current)
            current += 1
        for op in ops:
            if op.index not in tail:
                continue
            s = stage_of_old[op.index]
            clone = op.clone()
            index_map[op.index] = len(new_ops)
            clone.deps = tuple(sorted(
                {index_map[d] for d in op.deps if d in index_map}
                | {
                    recv_at[s - 1] for v in op.reads
                    if s > 0 and producer_stage.get(v, s) < s
                    and (s - 1) in recv_at
                }
            ))
            _append(clone, s)
        state.ops = new_ops

        state.stats["pipeline"] = {
            "pp": pp,
            "microbatches": microbatches,
            "stage_of": stage_final,
            "boundary_bytes": boundary_bytes,
        }
        return {
            "transforms": 2 * (pp - 1),
            "stages": pp,
            "boundary_bytes": sum(boundary_bytes),
        }
