"""ServingRuntime: a memoized step-cost oracle for serving loops.

A request-level serving simulator (see :mod:`repro.core.serving`)
executes millions of prefill/decode steps, but only ever sees a small
set of *quantized geometries* — (batch bucket, context bucket) pairs.
This layer turns the per-step question "how long does this step take,
and does its plan fit HBM?" into a dictionary lookup:

* the first time a geometry key appears, its graph is recorded (the
  caller supplies a factory), compiled through the shared
  :class:`~repro.synapse.recipe.RecipeCache` (incremental
  recompilation replays the structural passes across geometries of the
  same step type), and executed once on a fresh device with the
  configured runtime options — the event-driven runtime is deterministic,
  so one execution *is* the steady-state step latency;
* every subsequent step at that geometry replays the memoized
  :class:`StepCost` — per-step compile and simulation cost is near
  zero, the way SynapseAI replays a cached recipe per iteration;
* geometries whose memory plan exceeds the HBM budget memoize their
  :class:`~repro.util.errors.DeviceMemoryError` — the planner's
  verdict is what bounds the admissible batch, and re-asking is free.

The layer is model-agnostic: graph factories come from the caller, so
``synapse`` never imports ``models``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable

from ..hw.config import GaudiConfig
from ..util.errors import DeviceMemoryError
from .compiler import CompilerOptions, GraphCompiler
from .graph import Graph
from .recipe import RecipeCache
from .runtime import Runtime


@dataclass(frozen=True)
class StepCost:
    """The measured cost of one serving step at one geometry."""

    #: the caller's geometry key, echoed back
    key: Hashable
    #: steady-state step latency on the simulated device
    time_us: float
    #: the memory plan's peak live footprint for the step
    peak_hbm_bytes: int
    #: persistent (input/weight/cache) bytes of the plan
    persistent_bytes: int
    #: whether this geometry's compile missed every recipe tier
    compiled_cold: bool


class ServingRuntime:
    """Compile-execute-memoize layer between a serving loop and the
    simulator.

    ``hbm_budget`` (bytes) tightens the memory planner's enforcement
    below the device capacity: :meth:`step_cost` then raises
    :class:`~repro.util.errors.DeviceMemoryError` for geometries whose
    planned peak exceeds it, which is how cache memory pressure bounds
    the admissible batch. ``recipe_dir`` shares compiled recipes
    across processes (the sweep fan-out path).
    """

    def __init__(
        self,
        config: GaudiConfig | None = None,
        *,
        options: CompilerOptions | None = None,
        hbm_budget: int | None = None,
        recipe_dir: "str | Path | None" = None,
    ):
        self.config = config or GaudiConfig()
        base = options or CompilerOptions()
        if hbm_budget is not None:
            base = dataclasses.replace(
                base, hbm_budget=hbm_budget, enforce_memory=True
            )
        self.options = base
        self.recipes = RecipeCache(maxsize=256, save_dir=recipe_dir)
        self.compiler = GraphCompiler(self.config, base, cache=self.recipes)
        #: geometry key -> StepCost, or the DeviceMemoryError to re-raise
        self._memo: dict[Hashable, StepCost | DeviceMemoryError] = {}
        #: total step_cost calls: every oracle query, memo hit or not
        self.lookups = 0
        #: calls that had to record + compile + execute a new geometry
        self.measured = 0
        #: measured geometries whose compile missed every recipe tier
        self.cold_compiles = 0
        #: geometries the memory planner rejected
        self.infeasible = 0

    @property
    def hbm_budget(self) -> int:
        """The effective budget: the option, else the backend's device
        memory capacity."""
        backend = self.compiler.backend
        return self.options.hbm_budget or backend.memory_capacity_bytes(
            self.compiler.config
        )

    def step_cost(
        self, key: Hashable, graph_factory: Callable[[], Graph]
    ) -> StepCost:
        """The cost of one step at geometry ``key`` (memoized).

        ``graph_factory`` records the step's graph; it is only invoked
        the first time ``key`` is seen. Raises
        :class:`~repro.util.errors.DeviceMemoryError` (memoized too)
        when the step's memory plan exceeds the HBM budget.
        """
        self.lookups += 1
        hit = self._memo.get(key)
        if hit is not None:
            if isinstance(hit, DeviceMemoryError):
                # a fresh traceback: re-raising the memoized instance
                # as-is would chain every raise's frames onto it
                raise hit.with_traceback(None)
            return hit
        self.measured += 1
        try:
            schedule = self.compiler.compile(graph_factory())
        except DeviceMemoryError as err:
            self.infeasible += 1
            self._memo[key] = err
            raise
        cold = not self.compiler.last_cache_hit
        if cold:
            self.cold_compiles += 1
        device = self.compiler.backend.make_device(self.compiler.config)
        result = Runtime(device).execute(
            schedule, **self.options.runtime_kwargs()
        )
        cost = StepCost(
            key=key,
            time_us=result.total_time_us,
            peak_hbm_bytes=schedule.memory.peak_bytes,
            persistent_bytes=schedule.memory.persistent_bytes,
            compiled_cold=cold,
        )
        self._memo[key] = cost
        return cost

    def feasible(
        self, key: Hashable, graph_factory: Callable[[], Graph]
    ) -> bool:
        """Whether the step at ``key`` fits the HBM budget (memoized)."""
        try:
            self.step_cost(key, graph_factory)
        except DeviceMemoryError:
            return False
        return True

    @property
    def replay_fraction(self) -> float:
        """Share of lookups served from the geometry memo — the
        "per-step compile cost is near zero" claim, measured."""
        if self.lookups <= 0:
            return 0.0
        return 1.0 - (self.measured / self.lookups)

    def info(self) -> dict:
        """Counters snapshot for reports and tests."""
        return {
            "lookups": self.lookups,
            "measured": self.measured,
            "cold_compiles": self.cold_compiles,
            "infeasible": self.infeasible,
            "replay_fraction": self.replay_fraction,
            "recipe": self.recipes.info(),
        }
