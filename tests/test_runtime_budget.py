"""Runtime-budget guards: the reproduction must stay fast.

The whole point of a calibrated simulator is cheap iteration; if the
full study stops completing in seconds, something regressed (an
accidental per-element loop, an index space iterated member by member
at paper scale). Generous bounds — these exist to catch order-of-
magnitude regressions, not to be flaky.
"""

import time

from repro.core import run_attention_study


def test_attention_study_under_ten_seconds():
    start = time.monotonic()
    run_attention_study()
    assert time.monotonic() - start < 10.0


def test_full_study_under_ninety_seconds(full_study):
    report, elapsed = full_study
    assert report.all_passed
    assert elapsed < 90.0, f"full study took {elapsed:.1f}s"
