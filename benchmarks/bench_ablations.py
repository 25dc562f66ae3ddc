"""Ablation benches for the design choices DESIGN.md calls out.

3. LDM reuse (Athread) vs per-iteration copyin (OpenACC) DMA traffic;
4. register-communication scan vs serial vertical accumulation;
5. shuffle+regcomm transposition vs strided DMA;
6. layer decomposition: the 8x16 split's parallelism gain.
"""

import numpy as np
import pytest

from repro.backends import AthreadBackend, OpenACCBackend, table1_workloads
from repro.backends.scan import (
    regcomm_scan,
    scan_cycles,
    scan_speedup,
    serial_scan_cycles,
)
from repro.backends.transpose import (
    strided_dma_transpose_cycles,
    transpose_distributed,
)
from repro.sunway.regcomm import CPEMeshComm


def test_ablation_dma_reuse_traffic(benchmark):
    """Athread LDM reuse cuts euler_step DMA traffic to 10%."""

    def traffic_ratio():
        wl = table1_workloads()["euler_step"]
        acc = OpenACCBackend().execute(wl)
        ath = AthreadBackend().execute(wl)
        return ath.bytes_moved / acc.bytes_moved

    ratio = benchmark(traffic_ratio)
    assert ratio == pytest.approx(0.1, rel=0.02)


def test_ablation_regcomm_scan(benchmark):
    """The three-stage scan vs one CPE walking the column."""

    def run_scan():
        a = np.random.default_rng(0).uniform(0.5, 1.5, size=(128, 8))
        p, cycles = regcomm_scan(a)
        return p, cycles

    p, chain_cycles = benchmark(run_scan)
    assert np.allclose(p[-1], p[0] + np.sum(np.diff(p, axis=0), axis=0))
    # Critical-path speedup ~2.9x at 128 levels over 8 rows.
    assert scan_speedup(128) > 2.5
    assert serial_scan_cycles(128) > chain_cycles


def test_ablation_shuffle_transpose(benchmark):
    """Register transposition vs strided DMA round trip."""

    def run():
        m = np.random.default_rng(1).standard_normal((32, 32))
        out, cycles = transpose_distributed(m, CPEMeshComm())
        return out, cycles

    out, reg_cycles = benchmark(run)
    dma_cycles = strided_dma_transpose_cycles(32)
    assert dma_cycles / reg_cycles > 5.0


def test_ablation_layer_decomposition(benchmark):
    """The 8x16 layer split exposes 8x more parallel units per element
    than element-only decomposition, with only the scan chain as cost."""

    def parallelism():
        levels, rows = 128, 8
        units_element_only = 1          # one element = one work unit
        units_layer_split = rows        # 8 groups of 16 levels
        scan_overhead = scan_cycles()   # counted register hops
        work = levels * 6.0             # serial cycles per column
        t_serial = work
        t_split = work / rows * 2 + scan_overhead
        return units_layer_split / units_element_only, t_serial / t_split

    units, speedup = benchmark(parallelism)
    assert units == 8
    assert speedup > 2.5


def test_ablation_kernel_fusion(benchmark):
    """Paper Section 10: 'using fused memory operation to achieve better
    bandwidth' — fusing the two hyperviscosity sweeps keeps the
    intermediate Laplacians LDM-resident and saves ~20-25% of the pair."""
    from repro.backends.workloads import fused_hypervis_workload
    from repro.config import ModelConfig

    def run():
        cfg = ModelConfig(ne=256, nlev=128, qsize=4)
        wls = table1_workloads()
        b = AthreadBackend()
        sep = (
            b.execute(wls["hypervis_dp1"]).seconds
            + b.execute(wls["hypervis_dp2"]).seconds
        )
        fused = b.execute(fused_hypervis_workload(cfg, 64)).seconds
        return 1.0 - fused / sep

    saving = benchmark(run)
    assert 0.10 < saving < 0.40
