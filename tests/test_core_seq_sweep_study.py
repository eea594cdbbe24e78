"""Tests for the long-sequence sweep and the full-study orchestrator."""

import pytest

from repro.core import run_full_study, run_seq_sweep


class TestSeqSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_seq_sweep((256, 512, 1024, 2048))

    def test_checks_pass(self, result):
        failed = [str(c) for c in result.checks() if not c.passed]
        assert not failed, failed

    def test_quadratic_vs_linear_growth(self, result):
        soft = result.doubling_ratios(result.softmax_ms())
        lin = result.doubling_ratios(result.linear_ms())
        # softmax asymptotically ~4x per doubling, linear ~2x
        assert soft[-1] > lin[-1] + 0.5

    def test_speedup_exceeds_one_everywhere(self, result):
        assert all(s > 1.0 for s in result.speedups())

    def test_render(self, result):
        text = result.render()
        assert "seq len" in text and "speedup" in text


class TestFullStudy:
    @pytest.fixture(scope="class")
    def report(self, full_study):
        return full_study[0]

    def test_all_shape_checks_pass(self, report):
        failed = [str(c) for c in report.failed_checks()]
        assert report.all_passed, failed

    def test_covers_every_artifact(self, report):
        titles = [t for t, _ in report.sections]
        for needle in ("Table 1", "Table 2", "Figures 4-6", "Figure 7",
                       "Figure 8", "Figure 9", "A1", "A2", "A3", "A4", "A5",
                       "A6", "A7", "A8", "Long-sequence"):
            assert any(needle in t for t in titles), f"missing {needle}"

    def test_check_count_substantial(self, report):
        assert len(report.checks) >= 50

    def test_render_is_complete(self, report):
        text = report.render()
        assert "shape checks" in text
        assert "[PASS]" in text
        assert "[MISS]" not in text

    def test_without_extensions(self):
        report = run_full_study(include_extensions=False)
        titles = [t for t, _ in report.sections]
        assert not any(t.startswith("A1") for t in titles)
        assert report.all_passed
