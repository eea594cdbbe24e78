"""Graph and schedule serialization: save programs, reload anywhere.

A recorded graph is the complete performance-relevant description of a
workload (shapes, ops, attrs, provenance), so serializing it enables
offline workflows: record on one machine, compile/profile/sweep
configurations elsewhere, check a graph into a repo as a benchmark
fixture. JSON, versioned, loss-free for everything the compiler reads.

Compiled schedules round-trip too (:func:`schedule_to_json` /
:func:`schedule_from_json`) — that is what backs the
:class:`~repro.synapse.recipe.RecipeCache`'s on-disk recipe store.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..hw.costmodel import EngineKind, MatmulDims, OpClass, WorkItem
from ..hw.dtypes import DType
from ..util.errors import GraphError
from .graph import Graph
from .schedule import MemoryPlan, Schedule, ScheduledOp

FORMAT_VERSION = 1
SCHEDULE_FORMAT_VERSION = 1


def graph_to_json(graph: Graph) -> str:
    """Serialize ``graph`` to a JSON string."""
    return json.dumps(_graph_payload(graph), indent=1)


def _graph_payload(graph: Graph) -> dict:
    payload = {
        "format": "repro-graph",
        "version": FORMAT_VERSION,
        "name": graph.name,
        "values": [
            {
                "vid": v.vid,
                "shape": list(v.shape),
                "dtype": v.dtype.value,
                "name": v.name,
                "kind": v.kind,
            }
            for _, v in sorted(graph.values.items())
        ],
        "nodes": [
            {
                "nid": n.nid,
                "op": n.op,
                "inputs": list(n.inputs),
                "output": n.output,
                "attrs": _encode_attrs(n.attrs),
                "src": n.src,
                "scope": n.scope,
            }
            for n in graph.nodes
        ],
    }
    gradients = graph.gradients()
    if gradients:
        payload["gradients"] = [
            {"vid": vid, "param": name} for vid, name in gradients
        ]
    checkpoints = graph.checkpoints()
    if checkpoints:
        payload["checkpoints"] = [
            {
                "label": label,
                "inputs": list(inputs),
                "outputs": list(outputs),
                "droppable": list(droppable),
            }
            for label, inputs, outputs, droppable in checkpoints
        ]
    return payload


def _encode_attrs(attrs: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, tuple):
            out[key] = {"__tuple__": list(value)}
        else:
            out[key] = value
    return out


def _decode_attrs(attrs: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, dict) and "__tuple__" in value:
            out[key] = tuple(value["__tuple__"])
        else:
            out[key] = value
    return out


def graph_from_json(text: str) -> Graph:
    """Reconstruct a graph serialized by :func:`graph_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"not valid JSON: {exc}") from exc
    graph, _, _ = _graph_from_payload(payload)
    return graph


def _graph_from_payload(
    payload,
) -> tuple[Graph, dict[int, int], dict[int, int]]:
    """Rebuild a graph; also returns the old->new vid and nid maps.

    The graph builder renumbers values and nodes, so anything that
    references them by id (a serialized schedule's reads/writes/
    node_ids, the memory plan) must translate through these maps.
    """
    if not isinstance(payload, dict) or payload.get("format") != "repro-graph":
        raise GraphError("not a serialized repro graph")
    if payload.get("version") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported graph format version {payload.get('version')}"
        )
    graph = Graph(payload.get("name", "graph"))
    vid_map: dict[int, int] = {}
    nid_map: dict[int, int] = {}
    for spec in payload["values"]:
        value = graph.add_value(
            tuple(spec["shape"]), DType(spec["dtype"]),
            name=spec.get("name", ""), kind=spec.get("kind", "activation"),
        )
        vid_map[spec["vid"]] = value.vid
    for spec in payload["nodes"]:
        node = graph.add_node(
            spec["op"],
            [vid_map[v] for v in spec["inputs"]],
            graph.value(vid_map[spec["output"]]),
            attrs=_decode_attrs(spec.get("attrs", {})),
            src=spec.get("src", ""),
            scope=spec.get("scope", ""),
        )
        nid_map[spec["nid"]] = node.nid
    for spec in payload.get("gradients", []):
        graph.mark_gradient(vid_map[spec["vid"]], spec.get("param", ""))
    for spec in payload.get("checkpoints", []):
        graph.mark_checkpoint(
            spec.get("label", ""),
            [vid_map[v] for v in spec.get("inputs", [])],
            [vid_map[v] for v in spec.get("outputs", [])],
            [vid_map[v] for v in spec.get("droppable", [])],
        )
    graph.validate()
    return graph, vid_map, nid_map


# -- compiled schedules (the on-disk recipe store) ---------------------------


def _encode_work_item(item: WorkItem) -> dict:
    spec = {
        "name": item.name,
        "op_class": item.op_class.value,
        "flops": item.flops,
        "bytes_read": item.bytes_read,
        "bytes_written": item.bytes_written,
        "elements": item.elements,
        "dtype": item.dtype.value,
        "special_fn": item.special_fn,
        "fixed_time_us": item.fixed_time_us,
        "pipelined": item.pipelined,
    }
    if item.matmul is not None:
        spec["matmul"] = {
            "batch": item.matmul.batch, "m": item.matmul.m,
            "n": item.matmul.n, "k": item.matmul.k,
        }
    return spec


def _decode_work_item(spec: dict) -> WorkItem:
    matmul = spec.get("matmul")
    return WorkItem(
        name=spec["name"],
        op_class=OpClass(spec["op_class"]),
        flops=spec.get("flops", 0.0),
        bytes_read=spec.get("bytes_read", 0),
        bytes_written=spec.get("bytes_written", 0),
        elements=spec.get("elements", 0),
        dtype=DType(spec.get("dtype", DType.BF16.value)),
        matmul=MatmulDims(**matmul) if matmul else None,
        special_fn=spec.get("special_fn"),
        fixed_time_us=spec.get("fixed_time_us", 0.0),
        pipelined=spec.get("pipelined", False),
    )


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize a compiled schedule (graph + ops + memory + stats)."""
    payload = {
        "format": "repro-recipe",
        "version": SCHEDULE_FORMAT_VERSION,
        "graph": _graph_payload(schedule.graph),
        "ops": [
            {
                "index": op.index,
                "label": op.label,
                "engine": op.engine.value,
                "items": [_encode_work_item(i) for i in op.items],
                "deps": list(op.deps),
                "src": op.src,
                "scope": op.scope,
                "reads": list(op.reads),
                "writes": list(op.writes),
                "node_ids": list(op.node_ids),
                "external_read_bytes": op.external_read_bytes,
            }
            for op in schedule.ops
        ],
        "memory": {
            "persistent_bytes": schedule.memory.persistent_bytes,
            "peak_bytes": schedule.memory.peak_bytes,
            "free_after": [
                [vid, idx]
                for vid, idx in sorted(schedule.memory.free_after.items())
            ],
        },
        "stats": schedule.stats,
    }
    return json.dumps(payload, indent=1)


def schedule_from_json(text: str) -> Schedule:
    """Reconstruct a schedule serialized by :func:`schedule_to_json`.

    Raises :class:`~repro.util.errors.GraphError` on malformed input —
    the recipe cache treats that as a plain miss.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "repro-recipe":
        raise GraphError("not a serialized repro recipe")
    if payload.get("version") != SCHEDULE_FORMAT_VERSION:
        raise GraphError(
            f"unsupported recipe format version {payload.get('version')}"
        )
    try:
        graph, vid_map, nid_map = _graph_from_payload(payload["graph"])
        ops = [
            ScheduledOp(
                index=spec["index"],
                label=spec["label"],
                engine=EngineKind(spec["engine"]),
                items=tuple([_decode_work_item(i) for i in spec["items"]]),
                deps=tuple(spec.get("deps", ())),
                src=spec.get("src", ""),
                scope=spec.get("scope", ""),
                reads=tuple([vid_map[v] for v in spec.get("reads", ())]),
                writes=tuple([vid_map[v] for v in spec.get("writes", ())]),
                node_ids=tuple(
                    [nid_map[n] for n in spec.get("node_ids", ())]
                ),
                external_read_bytes=spec.get("external_read_bytes"),
            )
            for spec in payload["ops"]
        ]
        memory = MemoryPlan(
            persistent_bytes=payload["memory"]["persistent_bytes"],
            peak_bytes=payload["memory"]["peak_bytes"],
            free_after={
                vid_map[vid]: idx
                for vid, idx in payload["memory"]["free_after"]
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed recipe payload: {exc}") from exc
    return Schedule(
        graph=graph, ops=ops, memory=memory,
        stats=payload.get("stats", {}),
    )


def save_graph(graph: Graph, path: "str | Path") -> Path:
    """Write the graph JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(graph_to_json(graph))
    return path


def load_graph(path: "str | Path") -> Graph:
    """Load a graph saved by :func:`save_graph`."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    return graph_from_json(text)
