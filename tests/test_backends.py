"""Tests for the execution backends: Table-1 shape, traffic claims,
scan and transpose schemes and the costs the Athread backend counts
from them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.backends import (
    ALL_BACKENDS,
    AthreadBackend,
    KernelWorkload,
    OpenACCBackend,
    table1_workloads,
    workload_for,
)
from repro.backends.functional_exec import MiniWorkload, traffic_comparison
from repro.backends.scan import regcomm_scan, scan_speedup, serial_scan_cycles
from repro.backends.transpose import (
    strided_dma_transpose_cycles,
    transpose_distributed,
)
from repro.backends.workloads import STRUCTURE
from repro.config import ModelConfig
from repro.errors import KernelError, LDMOverflowError
from repro.sunway.regcomm import CPEMeshComm
from repro.sunway.spec import DEFAULT_SPEC, SW26010Spec

#: Paper Table 1 (seconds at 6,144 processes): Intel, MPE, OpenACC.
PAPER_TABLE1 = {
    "compute_and_apply_rhs": (12.69, 92.13, 75.11),
    "euler_step": (15.88, 175.73, 10.18),
    "vertical_remap": (11.38, 39.99, 16.17),
    "hypervis_dp1": (4.95, 12.71, 3.13),
    "hypervis_dp2": (3.81, 9.05, 1.32),
    "biharmonic_dp3d": (9.35, 36.18, 4.43),
}


@pytest.fixture(scope="module")
def reports():
    wls = table1_workloads()
    return {
        name: {b: ALL_BACKENDS[b]().execute(wl) for b in ALL_BACKENDS}
        for name, wl in wls.items()
    }


class TestTable1Shape:
    @pytest.mark.parametrize("kernel", list(PAPER_TABLE1))
    def test_absolute_times_within_band(self, reports, kernel):
        """Every simulated cell lands within 25% of the paper's value."""
        pi, pm, pa = PAPER_TABLE1[kernel]
        r = reports[kernel]
        assert r["intel"].seconds == pytest.approx(pi, rel=0.25)
        assert r["mpe"].seconds == pytest.approx(pm, rel=0.25)
        assert r["openacc"].seconds == pytest.approx(pa, rel=0.25)

    def test_mpe_2_to_10x_slower_than_intel(self, reports):
        """Paper: 'the performance of using one MPE is around 2-10 times
        slower' than one Intel process."""
        for kernel, r in reports.items():
            ratio = r["mpe"].seconds / r["intel"].seconds
            assert 2.0 <= ratio <= 12.0, (kernel, ratio)

    def test_rhs_openacc_slower_than_intel(self, reports):
        """Paper: 'For the kernel compute_and_apply_rhs, with data
        dependency, the OpenACC version is even 6x slower than Intel.'"""
        r = reports["compute_and_apply_rhs"]
        ratio = r["openacc"].seconds / r["intel"].seconds
        assert 4.0 <= ratio <= 8.0

    def test_euler_openacc_only_modestly_faster(self, reports):
        """Paper: 'the OpenACC version is only 1.5x faster than the
        Intel single-core performance' for euler_step."""
        r = reports["euler_step"]
        ratio = r["intel"].seconds / r["openacc"].seconds
        assert 1.2 <= ratio <= 1.9

    def test_athread_7_to_46x_vs_intel(self, reports):
        """Paper: 'the performance of 64 CPEs is also multiplied by
        another 7x to 46x' compared with a single Intel core."""
        for kernel, r in reports.items():
            ratio = r["intel"].seconds / r["athread"].seconds
            assert 7.0 <= ratio <= 46.0, (kernel, ratio)

    def test_athread_up_to_50x_vs_openacc(self, reports):
        """Paper: 'the Athread optimization can further improve the
        performance by up to 50x' over OpenACC."""
        ratios = [
            r["openacc"].seconds / r["athread"].seconds for r in reports.values()
        ]
        assert max(ratios) == pytest.approx(50.0, rel=0.15)
        assert all(r > 1.0 for r in ratios)

    def test_athread_always_fastest(self, reports):
        for kernel, r in reports.items():
            others = [r[b].seconds for b in ("intel", "mpe", "openacc")]
            assert r["athread"].seconds < min(others), kernel


class TestTrafficClaims:
    def test_euler_dma_traffic_ratio_is_10x(self):
        """Paper Section 7.3: 'total data transfer size has been
        decreased to 10% compared with the OpenACC solution'."""
        wl = table1_workloads()["euler_step"]
        acc = OpenACCBackend().execute(wl)
        ath = AthreadBackend().execute(wl)
        assert ath.bytes_moved / acc.bytes_moved == pytest.approx(0.1, rel=0.01)

    def test_openacc_moves_more_bytes_everywhere(self):
        for name, wl in table1_workloads().items():
            acc = OpenACCBackend().execute(wl)
            ath = AthreadBackend().execute(wl)
            assert acc.bytes_moved > ath.bytes_moved, name

    def test_gld_fallback_flagged(self):
        wls = table1_workloads()
        acc = OpenACCBackend()
        assert acc.execute(wls["compute_and_apply_rhs"]).notes["gld_fallback"]
        assert not acc.execute(wls["euler_step"]).notes["gld_fallback"]

    def test_reread_constant_matches_the_dma_mechanism(self):
        """The paper's 10x euler_step re-read is what Algorithms 1 and 2
        move on the simulated CPE at CAM's 25 tracers and 5 loop nests."""
        res = traffic_comparison(MiniWorkload.random(qsize=25), passes=5)
        assert STRUCTURE["euler_step"]["reread_factor_openacc"] == pytest.approx(
            1.0 / res["traffic_ratio"], rel=0.05)


class TestCountedRegcommCosts:
    """The Athread backend's scan and transposition terms are the cycles
    the CPE mesh counts when it runs the two schemes, on any spec."""

    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, SW26010Spec(cpe_rows=4, cpe_cols=4)],
                             ids=["8x8", "4x4"])
    def test_terms_are_the_counted_cycles(self, spec):
        levels = np.random.default_rng(0).uniform(size=(128, spec.cpe_cols))
        _, scan = regcomm_scan(levels, CPEMeshComm(spec))
        tile = 4 * spec.cpe_cols  # one block row per CPE of a row
        _, transpose = transpose_distributed(np.zeros((tile, tile)), CPEMeshComm(spec))
        per_point = transpose / (spec.cpe_rows * tile * tile)  # rows run concurrently
        assert scan == (spec.cpe_rows - 1) * spec.regcomm_latency_cycles
        backend, wls = AthreadBackend(spec), table1_workloads()
        assert any(wl.scan_levels for wl in wls.values())
        assert any(wl.transpose_points for wl in wls.values())
        for name, wl in wls.items():
            notes = backend.execute(wl).notes
            assert notes["scan_seconds"] == pytest.approx(
                wl.scan_levels * scan / spec.clock_hz, rel=1e-12), name
            assert notes["transpose_seconds"] == pytest.approx(
                wl.transpose_points * per_point / spec.clock_hz, rel=1e-12), name

    def test_mechanisms_run_on_first_use_not_at_import(self):
        code = (
            "import repro.backends\n"
            "from repro.backends.scan import scan_cycles\n"
            "from repro.backends.transpose import transpose_cycles_per_point as t\n"
            "assert scan_cycles.cache_info().currsize == 0\n"
            "assert t.cache_info().currsize == 0\n"
            "wl = repro.backends.table1_workloads()['vertical_remap']\n"
            "repro.backends.AthreadBackend().execute(wl)\n"
            "repro.backends.AthreadBackend().execute(wl)\n"
            "assert scan_cycles.cache_info().misses == t.cache_info().misses == 1\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestWorkloads:
    def test_scale_with_elements(self):
        cfg = ModelConfig(ne=256, nlev=128, qsize=4)
        w1 = workload_for("euler_step", cfg, 32)
        w2 = workload_for("euler_step", cfg, 64)
        assert w2.flops == pytest.approx(2 * w1.flops)
        assert w2.unique_bytes == pytest.approx(2 * w1.unique_bytes)

    def test_scale_with_tracers(self):
        cfg1 = ModelConfig(ne=256, nlev=128, qsize=2)
        cfg2 = ModelConfig(ne=256, nlev=128, qsize=8)
        w1 = workload_for("euler_step", cfg1, 64)
        w2 = workload_for("euler_step", cfg2, 64)
        assert w2.flops == pytest.approx(4 * w1.flops)

    def test_unknown_kernel_rejected(self):
        cfg = ModelConfig(ne=4, nlev=8)
        with pytest.raises(Exception):
            workload_for("magic_kernel", cfg, 4)

    def test_invalid_workload_rejected(self):
        with pytest.raises(ValueError):
            KernelWorkload("x", flops=0, unique_bytes=1)
        with pytest.raises(ValueError):
            KernelWorkload("x", flops=1, unique_bytes=1, serial_fraction=1.0)
        with pytest.raises(ValueError):
            KernelWorkload("x", flops=1, unique_bytes=1, reread_factor_openacc=0.5)

    def test_ldm_tiles_fit_64k(self):
        for name, wl in table1_workloads().items():
            assert wl.ldm_tile_bytes <= 64 * 1024, name

    def test_athread_rejects_oversized_tile(self):
        wl = KernelWorkload("big", flops=1e9, unique_bytes=1e9, ldm_tile_bytes=128 * 1024)
        with pytest.raises(LDMOverflowError):
            AthreadBackend().execute(wl)

    def test_small_ldm_spec_rejects_standard_tile(self):
        spec = SW26010Spec(ldm_bytes=8 * 1024)
        wl = table1_workloads()["compute_and_apply_rhs"]
        with pytest.raises(LDMOverflowError):
            AthreadBackend(spec).execute(wl)


class TestRegcommScan:
    def test_matches_cumsum(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((128, 8))
        p, cycles = regcomm_scan(a)
        assert np.allclose(p, np.cumsum(a, axis=0), atol=1e-9)
        assert cycles > 0

    def test_initial_value(self):
        a = np.ones((64, 4))
        p, _ = regcomm_scan(a, p0=100.0)
        assert np.allclose(p[0], 101.0)
        assert np.allclose(p[-1], 164.0)

    def test_stage2_critical_path(self):
        a = np.ones((128, 8))
        _, cycles = regcomm_scan(a)
        # 7 hops x 11 cycles down the column.
        assert cycles == 7 * 11

    def test_levels_must_divide(self):
        with pytest.raises(KernelError):
            regcomm_scan(np.ones((100, 4)))

    def test_too_many_columns(self):
        with pytest.raises(KernelError):
            regcomm_scan(np.ones((128, 9)))

    def test_speedup_at_128_levels(self):
        # 128 levels over 8 rows: two local passes of 16 + 7 register
        # hops vs 128 serial levels -> ~2.9x on the critical path.
        assert scan_speedup(128) > 2.5
        assert serial_scan_cycles(128) > 0

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_scan_property(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 2.0, size=(32, 8))
        p, _ = regcomm_scan(a)
        assert np.allclose(p, np.cumsum(a, axis=0), rtol=1e-12)


class TestShuffleTranspose:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_transpose_correct(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((4 * n, 4 * n))
        out, cycles = transpose_distributed(m)
        assert np.array_equal(out, m.T)
        assert cycles > 0

    def test_non_square_rejected(self):
        with pytest.raises(KernelError):
            transpose_distributed(np.zeros((8, 12)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(KernelError):
            transpose_distributed(np.zeros((12, 12)))  # 3 blocks

    def test_faster_than_strided_dma(self):
        """The point of Section 7.5: register transposition beats
        round-tripping through strided DMA."""
        m = np.random.default_rng(0).standard_normal((32, 32))
        _, reg_cycles = transpose_distributed(m)
        dma_cycles = strided_dma_transpose_cycles(32)
        assert dma_cycles > 5 * reg_cycles


class TestFusedHypervis:
    def test_fusion_saves_traffic_and_time(self):
        from repro.backends.workloads import fused_hypervis_workload
        from repro.config import ModelConfig

        cfg = ModelConfig(ne=256, nlev=128, qsize=4)
        wls = table1_workloads()
        fused = fused_hypervis_workload(cfg, 64)
        sep_bytes = (
            wls["hypervis_dp1"].unique_bytes + wls["hypervis_dp2"].unique_bytes
        )
        assert fused.unique_bytes < sep_bytes
        b = AthreadBackend()
        sep_t = (
            b.execute(wls["hypervis_dp1"]).seconds
            + b.execute(wls["hypervis_dp2"]).seconds
        )
        assert b.execute(fused).seconds < sep_t

    def test_fusion_preserves_flops(self):
        from repro.backends.workloads import fused_hypervis_workload
        from repro.config import ModelConfig

        cfg = ModelConfig(ne=256, nlev=128, qsize=4)
        wls = table1_workloads()
        fused = fused_hypervis_workload(cfg, 64)
        assert fused.flops == pytest.approx(
            wls["hypervis_dp1"].flops + wls["hypervis_dp2"].flops
        )

    def test_fused_tile_still_fits_ldm(self):
        from repro.backends.workloads import fused_hypervis_workload
        from repro.config import ModelConfig

        fused = fused_hypervis_workload(ModelConfig(ne=256, nlev=128, qsize=4), 64)
        assert fused.ldm_tile_bytes <= 64 * 1024
