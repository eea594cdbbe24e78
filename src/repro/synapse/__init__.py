"""The SynapseAI software-stack analog.

Graph IR -> op registry (Table 1's operation/engine mapping) ->
lowering -> GraphCompiler (fusion, DMA staging, recompilation events,
memory planning) -> Runtime (in-order, reorder or lookahead issue) ->
SynapseProfiler (hardware trace events + the paper's derived metrics).
"""

from .compiler import (
    CompilerOptions,
    GraphCompiler,
    disable_passes,
)
from .critical_path import CriticalPathResult, critical_path
from .dot import graph_to_dot, schedule_to_dot
from .executor import execute_graph, execute_outputs, execute_schedule
from .graph import Graph, Node, TensorValue
from .lint import LintWarning, lint_graph, lint_schedule, render_warnings
from .liveness import (
    LiveInterval,
    LivenessResult,
    compute_liveness,
    fused_internal_values,
)
from .lowering import lower_graph
from .memtrace import MemorySample, MemoryTimeline, memory_timeline
from .ops import (
    OpDef,
    engine_for,
    matmul_spec,
    op,
    op_names,
    work_item_for,
)
from .passes import (
    PASS_OPTION_FLAGS,
    CollectiveInjectionPass,
    CompilerPass,
    PassManager,
    default_passes,
)
from .profiler import ProfileResult, SynapseProfiler
from .recipe import (
    DEFAULT_RECIPE_CACHE_DIR,
    RecipeCache,
    default_recipe_cache_dir,
    graph_signature,
    recipe_cache_stats,
    recipe_key,
    reset_recipe_cache_stats,
    set_default_recipe_cache_dir,
)
from .render import ascii_timeline, gap_report
from .runtime import (
    ExecutionResult,
    HLS1Runtime,
    Runtime,
    collective_plans,
    fused_chain_traffic_bytes,
    op_cost_parts,
    op_duration_us,
)
from .schedule import MemoryPlan, Schedule, ScheduledOp
from .serving import ServingRuntime, StepCost
from .serialize import (
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
    schedule_from_json,
    schedule_to_json,
)
from .trace import Timeline, TraceEvent, validate_no_engine_overlap

__all__ = [
    "CompilerOptions",
    "GraphCompiler",
    "disable_passes",
    "PASS_OPTION_FLAGS",
    "CollectiveInjectionPass",
    "CompilerPass",
    "PassManager",
    "default_passes",
    "DEFAULT_RECIPE_CACHE_DIR",
    "RecipeCache",
    "default_recipe_cache_dir",
    "graph_signature",
    "recipe_cache_stats",
    "recipe_key",
    "reset_recipe_cache_stats",
    "set_default_recipe_cache_dir",
    "CriticalPathResult",
    "critical_path",
    "graph_to_dot",
    "schedule_to_dot",
    "execute_graph",
    "execute_outputs",
    "execute_schedule",
    "Graph",
    "Node",
    "TensorValue",
    "LintWarning",
    "lint_graph",
    "lint_schedule",
    "render_warnings",
    "LiveInterval",
    "LivenessResult",
    "compute_liveness",
    "fused_internal_values",
    "lower_graph",
    "MemorySample",
    "MemoryTimeline",
    "memory_timeline",
    "OpDef",
    "engine_for",
    "matmul_spec",
    "op",
    "op_names",
    "work_item_for",
    "ProfileResult",
    "SynapseProfiler",
    "ascii_timeline",
    "gap_report",
    "ExecutionResult",
    "HLS1Runtime",
    "Runtime",
    "collective_plans",
    "fused_chain_traffic_bytes",
    "op_cost_parts",
    "op_duration_us",
    "MemoryPlan",
    "Schedule",
    "ScheduledOp",
    "ServingRuntime",
    "StepCost",
    "graph_from_json",
    "graph_to_json",
    "load_graph",
    "save_graph",
    "schedule_from_json",
    "schedule_to_json",
    "Timeline",
    "TraceEvent",
    "validate_no_engine_overlap",
]
