"""Tests for the SW26010 spec, CPE / CoreGroup composition and PERF counters."""

import numpy as np
import pytest

from repro import constants as C
from repro.sunway import CPE, CoreGroup, PerfCounters
from repro.sunway.spec import SW26010Spec, DEFAULT_SPEC


class TestSpec:
    def test_published_chip_numbers(self):
        s = DEFAULT_SPEC
        assert s.cores_per_processor == 260
        assert s.cpes_per_cg == 64
        # "over 3 TFlops" peak per processor.
        assert s.processor_peak_flops > 2.9e12
        assert s.ldm_bytes == 64 * 1024

    def test_cg_bandwidth_split(self):
        assert DEFAULT_SPEC.cg_memory_bandwidth == pytest.approx(132e9 / 4)

    def test_reduced_spec_for_tests(self):
        s = SW26010Spec(cpe_rows=2, cpe_cols=2)
        assert s.cpes_per_cg == 4

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SW26010Spec(core_groups=0)
        with pytest.raises(ValueError):
            SW26010Spec(dma_peak_efficiency=0.0)

    def test_cycles_to_seconds(self):
        assert DEFAULT_SPEC.cycles_to_seconds(1.45e9) == pytest.approx(1.0)


class TestCPE:
    def test_owns_full_ldm(self):
        cpe = CPE(0, 0)
        assert cpe.ldm.capacity == 64 * 1024

    def test_coord(self):
        assert CPE(3, 5).coord == (3, 5)

    def test_off_mesh_rejected(self):
        with pytest.raises(ValueError):
            CPE(8, 0)

    def test_total_cycles_sums_components(self):
        cpe = CPE(0, 0)
        cpe.vector.add(np.ones(4), np.ones(4))
        cpe.dma.charge_get(1024)
        cpe.charge_scalar(100)
        assert cpe.total_cycles() == pytest.approx(
            cpe.vector.cycles() + cpe.dma.total_cycles + 100
        )

    def test_reset(self):
        cpe = CPE(0, 0)
        cpe.charge_scalar(10)
        cpe.ldm.alloc(128)
        cpe.reset()
        assert cpe.total_cycles() == 0
        assert cpe.ldm.used == 0


class TestCoreGroup:
    def test_has_64_cpes(self):
        assert CoreGroup().n_cpes == 64

    def test_cpe_lookup(self):
        cg = CoreGroup()
        assert cg.cpe(3, 4).coord == (3, 4)

    def test_collect_aggregates_flops(self):
        cg = CoreGroup()
        for cpe in cg.cpes:
            cpe.vector.add(np.ones(4), np.ones(4))
        perf = cg.collect()
        assert perf.dp_flops == 64 * 4

    def test_cycles_use_slowest_cpe(self):
        cg = CoreGroup()
        cg.cpe(0, 0).charge_scalar(1000)
        cg.cpe(7, 7).charge_scalar(10)
        assert cg.collect().cycles == pytest.approx(1000)

    def test_mpe_slower_than_intel_core(self):
        cg = CoreGroup()
        flops = 1e9
        mpe_s = cg.mpe_scalar_seconds(flops)
        intel_s = flops / (C.INTEL_CORE_PEAK_FLOPS * C.INTEL_KERNEL_EFFICIENCY)
        assert 2 < mpe_s / intel_s < 10

    def test_bandwidth_bound_seconds(self):
        cg = CoreGroup()
        t = cg.bandwidth_bound_seconds(33e9)
        assert t == pytest.approx(1.0)

    def test_reset(self):
        cg = CoreGroup()
        cg.charge_mpe(1.0)
        cg.reset()
        assert cg.collect().cycles == 0


class TestPerfCounters:
    def test_merge(self):
        a = PerfCounters(dp_flops=100, dma_bytes_get=10, cycles=5.0)
        b = PerfCounters(dp_flops=50, dma_bytes_put=20, cycles=3.0, ldm_high_water=99)
        a.merge(b)
        assert a.dp_flops == 150
        assert a.dma_bytes == 30
        assert a.cycles == 8.0
        assert a.ldm_high_water == 99

    def test_flop_rate(self):
        p = PerfCounters(dp_flops=3_300_000)
        assert p.flop_rate(1e-9) == pytest.approx(3.3e15)

    def test_arithmetic_intensity(self):
        p = PerfCounters(dp_flops=800, dma_bytes_get=100)
        assert p.arithmetic_intensity() == pytest.approx(8.0)
        assert PerfCounters(dp_flops=5).arithmetic_intensity() == float("inf")

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            PerfCounters().add_flops(-1)

    def test_snapshot_keys(self):
        snap = PerfCounters().snapshot()
        assert "dp_flops" in snap and "cycles" in snap
