"""Shared utilities: errors, units, validation, tables, RNG streams and
the garbage-collector pause."""

from .errors import (
    AutogradError,
    CompileError,
    ConfigError,
    DataError,
    DeviceMemoryError,
    ExecutionError,
    GraphError,
    KernelError,
    ReproError,
    ShapeError,
)
from .gc_pause import gc_paused
from .rng import DEFAULT_SEED, derive, make_rng
from .tabulate import render_kv, render_table
from .units import (
    GIB,
    KIB,
    MIB,
    fmt_bytes,
    fmt_flops,
    fmt_rate,
    fmt_time_us,
    ms_to_us,
    s_to_us,
    tflops,
    us_to_ms,
    us_to_s,
)
from .validation import (
    check_fraction,
    check_in,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_shape,
    same_shape,
)

__all__ = [
    "AutogradError",
    "CompileError",
    "ConfigError",
    "DataError",
    "DeviceMemoryError",
    "ExecutionError",
    "GraphError",
    "KernelError",
    "ReproError",
    "ShapeError",
    "gc_paused",
    "DEFAULT_SEED",
    "derive",
    "make_rng",
    "render_kv",
    "render_table",
    "GIB",
    "KIB",
    "MIB",
    "fmt_bytes",
    "fmt_flops",
    "fmt_rate",
    "fmt_time_us",
    "ms_to_us",
    "s_to_us",
    "tflops",
    "us_to_ms",
    "us_to_s",
    "check_fraction",
    "check_in",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_shape",
    "same_shape",
]
