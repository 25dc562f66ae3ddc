"""Tests for SYPD math and the scaling models."""

import pytest

from repro.errors import ConfigurationError
from repro.perf.report import ComparisonTable, ExperimentRecord
from repro.perf.scaling import CAMPerfModel, HommePerfModel, halo_stats
from repro.perf.sypd import (
    step_time_for_sypd,
    sypd_from_day_time,
    sypd_from_step_time,
)


class TestSypd:
    def test_definition(self):
        # One simulated day in 86400/365 wall seconds -> exactly 1 SYPD.
        assert sypd_from_day_time(86400.0 / 365.0) == pytest.approx(1.0)

    def test_paper_anchor_arithmetic(self):
        # 21.5 SYPD <-> ~11.0 s per simulated day.
        t_day = 86400.0 / (21.5 * 365.0)
        assert sypd_from_day_time(t_day) == pytest.approx(21.5)

    def test_step_roundtrip(self):
        s = step_time_for_sypd(3.4, dt_seconds=75.0)
        assert sypd_from_step_time(s, 75.0) == pytest.approx(3.4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sypd_from_day_time(0.0)
        with pytest.raises(ValueError):
            sypd_from_step_time(1.0, -1.0)


class TestHaloStats:
    def test_exact_for_small_mesh(self):
        h = halo_stats(16, 96)  # 16 elems/rank, exact path
        assert h.boundary_edges > 0
        assert 0 < h.boundary_fraction <= 1.0

    def test_analytic_matches_exact_order(self):
        # Compare the analytic law against an exact partition with the
        # same elements/rank.
        exact = halo_stats(16, 24)      # 64 elems/rank (exact)
        E = 64.0
        analytic_edges = 4.0 * E**0.5 + 4.0
        assert analytic_edges == pytest.approx(exact.boundary_edges, rel=0.5)

    def test_too_many_ranks(self):
        with pytest.raises(ConfigurationError):
            halo_stats(4, 1000)


class TestHommePerfModel:
    def test_strong_scaling_monotone_pflops(self):
        ms = [HommePerfModel(256, p) for p in (4096, 16384, 65536)]
        pf = [m.pflops for m in ms]
        assert pf[0] < pf[1] < pf[2]

    def test_strong_scaling_decreasing_efficiency(self):
        base = HommePerfModel(256, 4096)
        effs = [
            HommePerfModel(256, p).parallel_efficiency(base)
            for p in (8192, 32768, 131072)
        ]
        assert effs[0] > effs[1] > effs[2]

    def test_figure7_ne256_endpoints(self):
        lo = HommePerfModel(256, 4096)
        hi = HommePerfModel(256, 131072)
        assert lo.pflops == pytest.approx(0.07, rel=0.5)
        assert hi.pflops == pytest.approx(0.64, rel=0.5)
        assert hi.parallel_efficiency(lo) == pytest.approx(0.217, rel=0.35)

    def test_figure7_ne1024_endpoints(self):
        lo = HommePerfModel(1024, 8192)
        hi = HommePerfModel(1024, 131072)
        assert lo.pflops == pytest.approx(0.18, rel=0.5)
        assert hi.pflops == pytest.approx(1.76, rel=0.5)

    def test_memory_gate_ne1024(self):
        with pytest.raises(ConfigurationError):
            HommePerfModel(1024, 4096)
        HommePerfModel(1024, 8192)  # must construct

    def test_full_machine_weak_point(self):
        m = HommePerfModel(4096, 155_000)
        assert m.pflops == pytest.approx(3.3, rel=0.5)

    def test_overlap_faster_than_classic(self):
        on = HommePerfModel(256, 8192, overlap=True)
        off = HommePerfModel(256, 8192, overlap=False)
        assert on.step_seconds < off.step_seconds

    def test_backend_ordering(self):
        ts = {
            b: HommePerfModel(256, 6144, backend=b).step_seconds
            for b in ("mpe", "openacc", "athread")
        }
        assert ts["athread"] < ts["openacc"] < ts["mpe"]

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            HommePerfModel(256, 4096, backend="cuda")

    def test_sypd_positive(self):
        assert HommePerfModel(256, 8192).sypd() > 0


class TestCAMPerfModel:
    def test_ne30_athread_anchor(self):
        m = CAMPerfModel(30, 5400, backend="athread")
        assert m.sypd() == pytest.approx(21.5, rel=0.15)

    def test_ne120_openacc_anchor(self):
        m = CAMPerfModel(120, 28800, backend="openacc")
        assert m.sypd() == pytest.approx(3.4, rel=0.15)

    def test_speedup_bands(self):
        for nproc in (216, 1350, 5400):
            ori = CAMPerfModel(30, nproc, backend="mpe").sypd()
            acc = CAMPerfModel(30, nproc, backend="openacc").sypd()
            ath = CAMPerfModel(30, nproc, backend="athread").sypd()
            assert 1.3 <= acc / ori <= 1.55
            assert 1.1 <= ath / acc <= 1.4

    def test_scales_with_processes(self):
        s = [CAMPerfModel(30, p).sypd() for p in (216, 900, 5400)]
        assert s[0] < s[1] < s[2]

    def test_ne120_slower_than_ne30(self):
        # At equal process counts higher resolution is far slower.
        assert (
            CAMPerfModel(120, 5400).sypd() < CAMPerfModel(30, 5400).sypd()
        )

    def test_intel_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            CAMPerfModel(30, 216, backend="intel")


class TestComparisonTable:
    def test_ratio_pass(self):
        t = ComparisonTable("x")
        r = t.add("q", 10.0, 11.0, tolerance=0.2)
        assert r.passed
        assert t.all_passed

    def test_ratio_fail(self):
        t = ComparisonTable("x")
        t.add("q", 10.0, 20.0, tolerance=0.2)
        assert not t.all_passed

    def test_absolute_criterion_for_zero_paper(self):
        r = ExperimentRecord("x", "q", 0.0, 0.01, tolerance=0.05)
        assert r.passed
        r2 = ExperimentRecord("x", "q", 0.0, 0.5, tolerance=0.05)
        assert not r2.passed

    def test_render_and_markdown(self):
        t = ComparisonTable("demo")
        t.add("metric", 1.0, 1.05)
        assert "demo" in t.render()
        assert "| metric |" in t.markdown()

    def test_zero_paper_value_renders_sentinel_not_inf(self):
        r = ExperimentRecord("x", "q", 0.0, 0.01, tolerance=0.05)
        assert r.ratio_text == "n/a (abs)"
        t = ComparisonTable("zeros")
        t.add("q", 0.0, 0.01, tolerance=0.05)
        assert "inf" not in t.render()
        assert "n/a (abs)" in t.render()
        assert "inf" not in t.markdown()
        assert "n/a (abs)" in t.markdown()

    def test_nonzero_paper_value_renders_numeric_ratio(self):
        r = ExperimentRecord("x", "q", 10.0, 11.0)
        assert r.ratio_text == "1.10"
