"""Pausing CPython's cyclic garbage collector over cycle-free work."""

from __future__ import annotations

import contextlib
import gc


@contextlib.contextmanager
def gc_paused():
    """Disable the cyclic collector for the ``with`` body.

    For bounded calls that allocate many tracked objects but create no
    reference cycles: reference counting frees every object they drop,
    so what they leave tracked is alive. The outermost region's exit
    moves it to the oldest generation unwalked (``gc.freeze()`` then
    ``gc.unfreeze()``, unless the process froze objects itself), so no
    young collection runs just to walk it; a cycle made inside waits
    for the next full collection. Re-entrant: a region entered while
    the collector is off (a nested region, or a caller that disabled
    it) leaves it off on exit.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        gc.enable()
