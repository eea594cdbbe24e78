"""Pausing CPython's cyclic garbage collector over cycle-free work."""

from __future__ import annotations

import contextlib
import gc


@contextlib.contextmanager
def gc_paused():
    """Disable the cyclic collector for the ``with`` body.

    For bounded calls that allocate many tracked objects but create no
    reference cycles: reference counting still frees every object, and
    the collector resumes when the outermost region exits, collecting
    anything cyclic made inside it then. Re-entrant: a region entered
    while the collector is already off (a nested region, or a caller
    that disabled it) leaves it off on exit.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
