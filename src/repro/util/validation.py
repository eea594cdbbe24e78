"""Small argument-validation helpers used across the library.

These raise :class:`~repro.util.errors.ConfigError` /
:class:`~repro.util.errors.ShapeError` with messages that name the
offending parameter, so configuration mistakes surface at construction
time instead of as NaNs deep inside a simulation.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ConfigError, ShapeError


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Require an integer strictly greater than zero."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError(f"{name} must be a positive int, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_in(name: str, value: object, allowed: Sequence[object]) -> object:
    """Require membership in ``allowed``."""
    if value not in allowed:
        raise ConfigError(f"{name} must be one of {list(allowed)!r}, got {value!r}")
    return value


def check_backend(what: str, backend: str, backends: Sequence[str]) -> str:
    """Require ``backend`` to be one that ``what`` is calibrated for."""
    if backend not in backends:
        raise ConfigError(
            f"{what} runs on {', '.join(backends)}, not backend {backend!r}"
        )
    return backend


def check_shape(name: str, shape: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a tensor shape.

    Gaudi's TPC accepts tensors of rank 1..5 (§2.2); we allow rank 0
    (scalars) as well since the frontend produces them for losses.
    """
    shape = tuple(shape)
    if len(shape) > 5:
        raise ShapeError(f"{name}: rank {len(shape)} exceeds Gaudi's max tensor rank 5")
    for dim in shape:
        if not isinstance(dim, (int,)) or isinstance(dim, bool) or dim < 0:
            raise ShapeError(f"{name}: dimensions must be non-negative ints, got {shape!r}")
    return shape


def same_shape(name: str, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Require two shapes to match exactly; return the common shape."""
    ta, tb = tuple(a), tuple(b)
    if ta != tb:
        raise ShapeError(f"{name}: shapes differ, {ta} vs {tb}")
    return ta
