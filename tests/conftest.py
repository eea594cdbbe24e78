"""Fixtures shared across the tier-1 test modules."""

import time

import pytest

from repro.core import run_full_study


@pytest.fixture(scope="session")
def full_study():
    """One timed ``run_full_study()`` per session: ``(report, wall s)``.

    The study is the slowest single call in the suite, so the shape
    checks and the runtime budget read the same run.
    """
    start = time.monotonic()
    report = run_full_study()
    return report, time.monotonic() - start
