"""Backend protocol: one accelerator model behind a uniform surface.

The paper's study is Gaudi-specific — MME/TPC engines, HBM capacities,
Table-1 op placement — but nothing in the compiler/runtime stack needs
to *be* Gaudi-specific: the pass pipeline needs an engine-placement
table, the memory planner a capacity, the fluid runtime a shared
memory channel and a per-engine pricing function. This module names
that contract (the shape follows arXiv 2407.14645's "one analytical
core, per-device descriptors"):

* **engine set** — the timelines a device of this backend exposes,
  plus role properties (``matmul_engine``, ``vector_engine``,
  ``dma_engine``, ``host_engine``, ``collective_engine``,
  ``fusion_engine``) the compiler passes use instead of naming
  :class:`~repro.hw.costmodel.EngineKind` members directly (the
  ``lint_passes`` backend-coupling rule polices this);
* **placement table** — :meth:`Backend.engine_for` maps an op
  definition to the engine that runs it (Gaudi: the Table-1 column on
  the :class:`~repro.synapse.ops.OpDef`; WSE: everything computes on
  the PE grid);
* **memory hierarchy** — a capacity for the planner's budget and a
  cost model whose ``mem_bandwidth`` feeds the runtime's
  :class:`~repro.hw.bandwidth.BandwidthArbiter` pool;
* **cost hooks** — :meth:`Backend.cost_model` builds the per-op-class
  pricing object (``time_us`` / ``cost_parts`` over the backend's
  engines);
* **lowering/validation hooks** — :meth:`Backend.graph_warnings` lets
  a backend veto or flag graphs its device model cannot honor.

``backend="gaudi"`` (the default everywhere) routes every one of these
through the exact pre-refactor Gaudi expressions, so default traces
and numerics stay byte-identical to the single-backend stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..util.errors import ConfigError
from .config import GaudiConfig
from .costmodel import CostModel, EngineKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import GaudiDevice


class Backend:
    """One accelerator model: engines, placement, memory, pricing.

    Subclasses override the class attributes and the config-shaped
    methods; the role properties default to the attribute values so a
    backend is fully described by a handful of declarations.
    """

    #: registry key and the ``CompilerOptions.backend`` value
    name: str = ""
    #: engines a device of this backend runs ops on, in trace order
    engines: tuple[EngineKind, ...] = ()
    #: engine that runs matmul-class work
    matmul_engine: EngineKind = EngineKind.MME
    #: engine that runs elementwise/reduction/special vector work
    vector_engine: EngineKind = EngineKind.TPC
    #: engine fused elementwise chains land on
    fusion_engine: EngineKind = EngineKind.TPC
    #: engine that stages inter-engine transfers
    dma_engine: EngineKind = EngineKind.DMA
    #: engine that absorbs host round-trips (recompilations)
    host_engine: EngineKind = EngineKind.HOST
    #: engine that drives collectives / the fabric
    collective_engine: EngineKind = EngineKind.NIC
    #: whether the row-slicing pass's anchor split pays off (it models
    #: the Gaudi MME/TPC ping-pong; single-grid backends skip it)
    supports_tpc_slicing: bool = True

    # -- placement -----------------------------------------------------------

    @property
    def non_staged_engines(self) -> tuple[EngineKind, ...]:
        """Engines whose reads never need a DMA staging hop."""
        return (self.dma_engine, self.host_engine, self.collective_engine)

    def engine_for(self, opdef) -> EngineKind:
        """Placement table: the engine that executes ``opdef``."""
        raise NotImplementedError

    # -- configuration -------------------------------------------------------

    def default_config(self):
        """A fresh default device config for this backend."""
        raise NotImplementedError

    def owns_config(self, config) -> bool:
        """Whether ``config`` describes a device of this backend."""
        raise NotImplementedError

    def coerce_config(self, config):
        """``config`` if it belongs to this backend, else the default.

        Lets call sites that historically pass a :class:`GaudiConfig`
        (sweeps, profilers) retarget at another backend without
        threading a second config object through every signature.
        """
        if config is not None and self.owns_config(config):
            return config
        return self.default_config()

    # -- memory + pricing ----------------------------------------------------

    def cost_model(self, config):
        """Per-op-class pricing object for ``config``."""
        raise NotImplementedError

    def memory_capacity_bytes(self, config) -> int:
        """Device-memory budget the memory planner plans against."""
        raise NotImplementedError

    def make_device(self, config=None):
        """A fresh device (cost model plus clock) for this backend."""
        raise NotImplementedError

    # -- lowering / validation hooks ----------------------------------------

    def graph_warnings(self, graph) -> list[str]:
        """Backend-specific validation findings for ``graph``.

        Returned strings are advisory (surfaced through graph lint);
        an empty list means the backend accepts the graph as-is.
        """
        return []

    def describe(self) -> dict:
        """Engine + role summary for reports."""
        return {
            "name": self.name,
            "engines": [e.value for e in self.engines],
            "matmul_engine": self.matmul_engine.value,
            "vector_engine": self.vector_engine.value,
            "fusion_engine": self.fusion_engine.value,
            "collective_engine": self.collective_engine.value,
        }


class GaudiBackend(Backend):
    """The paper's device: MME/TPC split, HBM, Table-1 placement."""

    name = "gaudi"
    engines = (
        EngineKind.MME, EngineKind.TPC, EngineKind.DMA,
        EngineKind.HOST, EngineKind.NIC,
    )
    matmul_engine = EngineKind.MME
    vector_engine = EngineKind.TPC
    fusion_engine = EngineKind.TPC
    dma_engine = EngineKind.DMA
    host_engine = EngineKind.HOST
    collective_engine = EngineKind.NIC
    supports_tpc_slicing = True

    def engine_for(self, opdef) -> EngineKind:
        """Gaudi placement is the Table-1 column on the op definition."""
        return opdef.engine

    def default_config(self) -> GaudiConfig:
        return GaudiConfig()

    def owns_config(self, config) -> bool:
        return isinstance(config, GaudiConfig)

    def cost_model(self, config) -> CostModel:
        return CostModel(config)

    def memory_capacity_bytes(self, config) -> int:
        return config.hbm.capacity_bytes

    def make_device(self, config=None) -> "GaudiDevice":
        from .device import GaudiDevice

        return GaudiDevice(self.coerce_config(config))


_BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add a backend instance to the registry (names are unique)."""
    if not backend.name:
        raise ConfigError("backend must declare a non-empty name")
    if backend.name in _BACKENDS:
        raise ConfigError(f"backend {backend.name!r} already registered")
    _BACKENDS[backend.name] = backend
    return backend


def backend_names() -> list[str]:
    """All registered backend names, sorted."""
    _ensure_builtin_backends()
    return sorted(_BACKENDS)


def get_backend(name: str) -> Backend:
    """Look up a backend by name (``gaudi`` and ``wse`` are built in)."""
    _ensure_builtin_backends()
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; registered: {sorted(_BACKENDS)}"
        ) from None


def _ensure_builtin_backends() -> None:
    if "gaudi" not in _BACKENDS:
        register_backend(GaudiBackend())
    if "wse" not in _BACKENDS:
        from .backends.wse import WSEBackend

        register_backend(WSEBackend())
