"""Kernel workload derivation for the Table-1 benchmark configuration.

Each Table-1 kernel's arithmetic and traffic volumes are derived from
the model configuration (elements/process, levels, tracers) and
per-point operation counts taken from inspection of the kernel
implementations in :mod:`repro.homme`:

===================  =====================================================
kernel               per-point-per-step composition
===================  =====================================================
compute_and_apply    3 RK stages x (pressure scan, geopotential scan,
_rhs                 KE, vorticity, 2 gradients, k-cross, omega, div)
euler_step           3 subcycles x 2 SSP stages x Q tracers x (flux
                     divergence + DSS + limiter)
vertical_remap       (3 + Q) fields x PPM (edges, limiter, cumulative
                     search, integral), amortized over rsplit steps
hypervis_dp1/dp2     3 fields x (vector/scalar Laplacian + DSS [+ update])
biharmonic_dp3d      2 weak-Laplacian sweeps with quadrature assembly
===================  =====================================================

Structural parameters (re-read factors, serial fractions, LDM
fitability) encode the paper's findings: the OpenACC euler_step re-read
measured by the authors (traffic drops to ~10% under Athread, Section
7.3), the data-dependent kernels that defeat the directive model
(compute_and_apply_rhs 6x slower than one Intel core, Section 7.3), and
the 32-level chunking of Algorithm 1.
"""

from __future__ import annotations

from ..config import ModelConfig
from ..errors import ConfigurationError
from .base import KernelWorkload

#: Tracer count in the dycore benchmark configuration (HOMME scaling
#: runs use a reduced tracer set, not the CAM5 25-tracer suite).
BENCH_QSIZE = 4

#: Dynamics steps in the Table-1 timing window (about 6 simulated hours
#: at ne256; sets the absolute scale of the reported seconds).
BENCH_STEPS = 600

#: Per-(GLL point, level, step) DP operation counts, from kernel
#: inspection (see module docstring).
FLOPS_PER_POINT = {
    "compute_and_apply_rhs": 3 * 260.0,      # 3 RK stages
    "euler_step": 6 * 40.0,                  # x Q tracers
    "vertical_remap": 300.0,                 # x (3 + Q) fields / rsplit
    "hypervis_dp1": 3 * 100.0,               # 3 fields
    "hypervis_dp2": 3 * 78.0,
    "biharmonic_dp3d": 2 * 290.0,            # 2 weak sweeps
}

#: Unique main-memory traffic per (point, level, step) in doubles.
DOUBLES_PER_POINT = {
    "compute_and_apply_rhs": 3 * 22.0,   # state + scan/DSS temporaries
    "euler_step": None,                      # computed from Q below
    "vertical_remap": None,
    "hypervis_dp1": 12.0,
    "hypervis_dp2": 14.0,
    "biharmonic_dp3d": 10.0,
}

#: Intel achieved fraction of AVX2 peak.  The per-point operation counts
#: above already encode each kernel's arithmetic structure; SE kernels on
#: Haswell uniformly sustain ~12% of peak (bandwidth+latency limited).
VEC_INTEL = {k: 0.12 for k in FLOPS_PER_POINT}

#: MPE scalar efficiency per kernel (fraction of the 2 GF/s scalar rate).
#: Small-working-set loop kernels (hyperviscosity) run near scalar peak;
#: kernels streaming the whole state (euler_step with its tracers) thrash
#: the 256 KB L2 and drop to ~0.2.  Calibrated to Table 1's MPE column.
MPE_EFFICIENCY = {
    "compute_and_apply_rhs": 0.33,
    "euler_step": 0.215,
    "vertical_remap": 0.69,
    "hypervis_dp1": 0.93,
    "hypervis_dp2": 1.0,
    "biharmonic_dp3d": 0.63,
}

#: Structural parameters for the accelerated backends.
STRUCTURE = {
    "compute_and_apply_rhs": dict(
        ldm_fields=12,
        reread_factor_openacc=3.8,
        serial_fraction=0.12,
        scan_levels=9,                        # 3 scans x 3 stages
        acc_ldm_fit=False,                    # directive port spills to gld/gst
        vec_openacc=0.02,
        vec_athread=0.30,
        launch_regions=36,
    ),
    "euler_step": dict(
        ldm_fields=8,
        # Paper: traffic -> 10% with reuse, for CAM's 25 tracers; the
        # functional Algorithm 1/2 run gives 1 / 0.104 at Q = 25 and five
        # loop nests (tests pin it within 5%), but 1 / 0.21 at Table 1's
        # Q = 4 and three, so the paper's figure stays a constant.
        reread_factor_openacc=10.0,
        serial_fraction=0.0,
        scan_levels=0,
        acc_ldm_fit=True,                     # Algorithm 1's 32-level chunks fit
        vec_openacc=0.05,
        vec_athread=0.35,
        launch_regions=None,                  # filled as 6 * Q below
    ),
    "vertical_remap": dict(
        ldm_fields=9,
        reread_factor_openacc=4.0,
        serial_fraction=0.09,             # PPM searches serialize under directives
        scan_levels=1,
        acc_ldm_fit=False,                # transposed access defeats LDM buffering
        transposed=True,                      # axis switch: strided on OpenACC
        vec_openacc=0.03,
        vec_athread=0.22,                 # PPM searches resist even manual SIMD
        launch_regions=None,                  # 3 + Q
    ),
    "hypervis_dp1": dict(
        ldm_fields=7,
        reread_factor_openacc=3.0,
        serial_fraction=0.0,
        scan_levels=0,
        acc_ldm_fit=True,
        vec_openacc=0.011,
        vec_athread=0.30,
        launch_regions=6,
    ),
    "hypervis_dp2": dict(
        ldm_fields=7,
        reread_factor_openacc=3.0,
        serial_fraction=0.0,
        scan_levels=0,
        acc_ldm_fit=True,
        vec_openacc=0.02,
        vec_athread=0.30,
        launch_regions=6,
    ),
    "biharmonic_dp3d": dict(
        ldm_fields=6,
        reread_factor_openacc=4.0,
        serial_fraction=0.0,
        scan_levels=0,
        acc_ldm_fit=True,
        vec_openacc=0.0145,
        vec_athread=0.30,
        launch_regions=4,
    ),
}

KERNELS = tuple(FLOPS_PER_POINT)


def workload_for(
    kernel: str,
    cfg: ModelConfig,
    elems_per_proc: int,
    steps: int = BENCH_STEPS,
) -> KernelWorkload:
    """Build the per-process workload of ``kernel`` over ``steps`` steps."""
    if kernel not in FLOPS_PER_POINT:
        raise ConfigurationError(f"unknown kernel {kernel!r}")
    E, L, Q = elems_per_proc, cfg.nlev, cfg.qsize
    points = E * L * cfg.np * cfg.np  # point-levels per process
    s = dict(STRUCTURE[kernel])

    fl = FLOPS_PER_POINT[kernel]
    if kernel == "euler_step":
        flops = fl * Q * points * steps
        # Compulsory traffic after full LDM reuse: each of the 6 SSP
        # stages (3 subcycles x 2) reads and writes qdp per tracer
        # (12 Q doubles) plus the shared arrays once (~5) — the Athread
        # floor; OpenACC re-reads 10x this (paper Section 7.3).
        doubles = 12.0 * Q + 5.0
        s["launch_regions"] = 6 * Q
    elif kernel == "vertical_remap":
        flops = fl * (3 + Q) / 3.0 * points * steps  # amortized over rsplit
        doubles = (2.0 * (3 + Q) + 4.0) / 3.0
        s["launch_regions"] = 3 + Q
    else:
        flops = fl * points * steps
        doubles = DOUBLES_PER_POINT[kernel]
    unique_bytes = doubles * 8.0 * points * steps

    transposed = s.pop("transposed", False)
    acc_ldm_fit = s.pop("acc_ldm_fit")
    # Athread tiling: one element's tile of the kernel's resident fields
    # over a 16-level slab (the 8x16 layer decomposition of Figure 2).
    # Tracer kernels stage ONE tracer at a time (Algorithm 2), so the
    # resident set is the shared fields plus one tracer's buffers.
    ldm_tile = s.pop("ldm_fields") * cfg.np * cfg.np * 16 * 8

    return KernelWorkload(
        name=kernel,
        flops=flops,
        unique_bytes=unique_bytes,
        reread_factor_openacc=s["reread_factor_openacc"],
        serial_fraction=s["serial_fraction"],
        scan_levels=s["scan_levels"] * steps,
        transpose_points=points * steps if transposed else 0,
        ldm_tile_bytes=ldm_tile,
        vec_intel=VEC_INTEL[kernel],
        mpe_efficiency=MPE_EFFICIENCY[kernel],
        vec_openacc=s["vec_openacc"],
        vec_athread=s["vec_athread"],
        launch_regions=s["launch_regions"] * steps,
        acc_ldm_fit=acc_ldm_fit,
    )


def table1_workloads(
    ne: int = 256,
    nproc: int = 6144,
    nlev: int = 128,
    qsize: int = BENCH_QSIZE,
    steps: int = BENCH_STEPS,
) -> dict[str, KernelWorkload]:
    """All Table-1 kernel workloads for the paper's 6,144-process run.

    ne256 over 6,144 processes gives the paper's 64 elements per
    process.
    """
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=qsize)
    epp = cfg.nelem // nproc
    if epp < 1:
        raise ConfigurationError(f"{nproc} processes exceed {cfg.nelem} elements")
    return {k: workload_for(k, cfg, epp, steps) for k in KERNELS}


def fused_hypervis_workload(
    cfg: ModelConfig, elems_per_proc: int, steps: int = BENCH_STEPS
) -> KernelWorkload:
    """hypervis_dp1 + dp2 fused into one kernel (paper Section 10:
    "using fused memory operation to achieve better bandwidth").

    The separate kernels write the intermediate Laplacians to main
    memory and read them back; fusing keeps them LDM-resident, saving
    one round trip of the 3 intermediate fields (6 doubles per point
    per step).
    """
    d1 = workload_for("hypervis_dp1", cfg, elems_per_proc, steps)
    d2 = workload_for("hypervis_dp2", cfg, elems_per_proc, steps)
    points = elems_per_proc * cfg.nlev * cfg.np * cfg.np
    saved = 6.0 * 8.0 * points * steps  # lap_v(2) + lap_T written+read
    return KernelWorkload(
        name="hypervis_fused",
        flops=d1.flops + d2.flops,
        unique_bytes=d1.unique_bytes + d2.unique_bytes - saved,
        reread_factor_openacc=3.0,
        serial_fraction=0.0,
        scan_levels=0,
        transpose_points=0,
        ldm_tile_bytes=d1.ldm_tile_bytes + 2 * cfg.np * cfg.np * 16 * 8,
        vec_intel=d1.vec_intel,
        vec_openacc=d1.vec_openacc,
        vec_athread=d1.vec_athread,
        mpe_efficiency=d1.mpe_efficiency,
        launch_regions=6,                  # one region instead of two
        acc_ldm_fit=True,
    )
