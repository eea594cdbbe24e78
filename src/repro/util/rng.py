"""Deterministic random-number management.

All stochastic components (Performer feature draws, synthetic corpus,
parameter init) take a :class:`numpy.random.Generator`; this module
provides the conventional way to derive independent, reproducible
streams from a single experiment seed.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0x6A0D1  # "GAUDI" homage; any fixed value works


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a generator from ``seed`` (library default if ``None``)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def module_rng(
    rng: np.random.Generator | None, materialize: bool
) -> np.random.Generator | None:
    """The stream a module derives its weights' streams from.

    A concrete build gets ``rng``, else the library default. A symbolic
    build (``materialize=False``) draws nothing, so it gets ``None``,
    which :func:`derive` passes through: no seed sequence or generator
    is built for weights that are never drawn.
    """
    if not materialize:
        return None
    return rng or make_rng()


def derive(
    rng: np.random.Generator | None, *tags: str
) -> np.random.Generator | None:
    """Derive an independent child stream identified by string ``tags``.

    Uses ``spawn``-like key folding so the child is stable regardless of
    how many draws the parent has made — components get the same stream
    whether or not unrelated code consumed randomness first. ``None``
    (a symbolic build's stream, see :func:`module_rng`) derives ``None``.
    """
    if rng is None:
        return None
    key = np.frombuffer(("/".join(tags)).encode("utf-8"), dtype=np.uint8)
    parent_seq = rng.bit_generator.seed_seq
    # Append to the parent's spawn key so nested derivations stay
    # independent: derive(derive(r, "a"), "x") != derive(derive(r, "b"), "x").
    seed_seq = np.random.SeedSequence(
        entropy=int(parent_seq.entropy or DEFAULT_SEED),
        spawn_key=tuple(parent_seq.spawn_key) + tuple(int(b) for b in key),
    )
    return np.random.default_rng(seed_seq)
