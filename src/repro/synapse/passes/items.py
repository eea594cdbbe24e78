"""The work-item cache that grouping and emission share.

A node's :class:`~repro.hw.costmodel.WorkItem` is a pure function of
its op kind, scope (the item's label), input and output shapes, dtype
and attributes. The paper's steps are stacks of identical transformer
layers, so one compile derives the same item many times, and a sweep
over batch x seq derives it again at every point that repeats a shape.
This cache keys each item by value on exactly those inputs and hands
out one shared, frozen instance per key. Because the runtime memoizes
prices on the item itself (``WorkItem.costs``), sharing the item is
also what makes an (op, shape) pair priced once per calibration.

Emission's DMA staging items share the cache under ``("dma", value
id, bytes)``; a node key starts with an op name and is at least five
long, so the two kinds never collide.

The cache is bounded (it starts over when full) and keeps no
counters. Being a pure function of its keys, it needs no owner: any
compile, in any run, may read what another stored.
"""

from __future__ import annotations

from typing import Callable

from ...hw.costmodel import WorkItem
from ..graph import Graph, Node
from ..ops import work_item_for

#: entries kept before the cache starts over
MAX_ITEMS = 8192

_ITEMS: dict[tuple, WorkItem] = {}


def _remember(key: tuple, item: WorkItem) -> WorkItem:
    if len(_ITEMS) >= MAX_ITEMS:
        _ITEMS.clear()
    _ITEMS[key] = item
    return item


def node_item(graph: Graph, node: Node) -> WorkItem:
    """``node``'s work item, shared by every node with the same key.

    Nodes whose attributes hold an unhashable value are priced fresh.
    """
    value = graph.value
    out = value(node.output)
    # one flat tuple, the input shapes last
    key = (node.op, node.scope, out.shape, out.dtype,
           tuple(node.attrs.items()), *[value(v).shape for v in node.inputs])
    try:
        item = _ITEMS.get(key)
    except TypeError:  # an unhashable attribute value: nothing to share
        return _derive(node, key)
    if item is None:
        item = _remember(key, _derive(node, key))
    return item


def _derive(node: Node, key: tuple) -> WorkItem:
    """A fresh work item for ``node`` from its :func:`node_item` key."""
    return work_item_for(
        node.op, list(key[5:]), key[2], key[3], node.attrs,
        label=node.label(),
    )


def shared_item(key: tuple, build: Callable[[], WorkItem]) -> WorkItem:
    """The cached item under ``key``, built by ``build`` on a miss."""
    item = _ITEMS.get(key)
    if item is None:
        item = _remember(key, build())
    return item


def clear_item_cache() -> None:
    """Drop every cached work item (test isolation)."""
    _ITEMS.clear()
