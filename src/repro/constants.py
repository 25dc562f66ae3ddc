"""Physical and hardware constants for the CAM-SE-on-Sunway reproduction.

Hardware numbers come from the paper (Section 5) and public SW26010
documentation; physical constants follow the values used by CAM/HOMME.
All units are SI unless the name says otherwise.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Physical constants (CAM / HOMME conventions)
# --------------------------------------------------------------------------

#: Earth radius [m] (HOMME ``rearth``).
EARTH_RADIUS = 6.376e6

#: Earth angular velocity [rad/s].
EARTH_OMEGA = 7.292e-5

#: Gravitational acceleration [m/s^2].
GRAVITY = 9.80616

#: Gas constant for dry air [J/(kg K)].
R_DRY = 287.04

#: Specific heat of dry air at constant pressure [J/(kg K)].
CP_DRY = 1004.64

#: R/cp for dry air (kappa).
KAPPA = R_DRY / CP_DRY

#: Reference surface pressure [Pa].
P0 = 100000.0

#: Latent heat of vaporization [J/kg] (Kessler microphysics).
LATENT_HEAT_VAP = 2.5e6

#: Gas constant for water vapour [J/(kg K)].
R_VAPOR = 461.5

#: Seconds per simulated day.
SECONDS_PER_DAY = 86400.0

#: Days per simulated year (CAM uses a 365-day calendar).
DAYS_PER_YEAR = 365.0

# --------------------------------------------------------------------------
# SW26010 processor (paper Section 5.2)
# --------------------------------------------------------------------------

#: Core groups per SW26010 processor.
SW_CORE_GROUPS = 4

#: Computing processing elements per core group (8 x 8 mesh).
SW_CPES_PER_CG = 64

#: CPE mesh dimensions.
SW_CPE_MESH_ROWS = 8
SW_CPE_MESH_COLS = 8

#: Management processing elements per core group.
SW_MPES_PER_CG = 1

#: Total cores per processor: 4 * (64 + 1).
SW_CORES_PER_PROCESSOR = SW_CORE_GROUPS * (SW_CPES_PER_CG + SW_MPES_PER_CG)

#: CPE / MPE clock frequency [Hz].
SW_CLOCK_HZ = 1.45e9

#: Local Data Memory (scratchpad) per CPE [bytes].
SW_LDM_BYTES = 64 * 1024

#: L1 instruction cache per CPE [bytes].
SW_CPE_ICACHE_BYTES = 16 * 1024

#: MPE caches [bytes].
SW_MPE_L1I_BYTES = 32 * 1024
SW_MPE_L1D_BYTES = 32 * 1024
SW_MPE_L2_BYTES = 256 * 1024

#: Vector register width [bits] and double-precision lanes.
SW_VECTOR_BITS = 256
SW_VECTOR_DP_LANES = 4

#: Double-precision flops per cycle per CPE (FMA on 4 lanes = 8 flops).
SW_CPE_FLOPS_PER_CYCLE = 8

#: Peak DP performance of one CPE [flop/s].
SW_CPE_PEAK_FLOPS = SW_CPE_FLOPS_PER_CYCLE * SW_CLOCK_HZ

#: Peak DP performance of one processor (the paper: "over 3 TFlops").
SW_PROCESSOR_PEAK_FLOPS = (
    SW_CORE_GROUPS * SW_CPES_PER_CG * SW_CPE_PEAK_FLOPS
)

#: Main memory per processor [bytes] (32 GB).
SW_MEMORY_BYTES = 32 * 1024**3

#: Memory bandwidth per processor [bytes/s] (132 GB/s, shared by 4 CGs).
SW_MEMORY_BANDWIDTH = 132e9

#: Memory bandwidth available to one core group [bytes/s].
SW_CG_MEMORY_BANDWIDTH = SW_MEMORY_BANDWIDTH / SW_CORE_GROUPS

#: Register-communication latency between CPEs on a row/column [cycles].
#: The paper: "within tens of cycles"; public microbenchmarks measure ~10-11.
SW_REGCOMM_LATENCY_CYCLES = 11

#: Register communication payload per transfer [bytes] (256-bit register).
SW_REGCOMM_BYTES = 32

#: DMA startup latency [cycles] per descriptor (public microbenchmarks ~25 cycles
#: issue + ~230 ns round trip; we model the round-trip as cycles at CPE clock).
SW_DMA_STARTUP_CYCLES = 330

#: DMA achieves near-peak bandwidth only for block sizes >= 256 bytes and
#: row-contiguous access; see sunway/dma.py for the efficiency curve.
SW_DMA_PEAK_EFFICIENCY = 0.9

#: MPE scalar throughput relative to one Intel Haswell core. Table 1 shows
#: MPE-only runs 2-10x slower than one Intel core across kernels; the MPE
#: backend combines this factor with kernel memory behaviour.
SW_MPE_RELATIVE_SCALAR_SPEED = 0.22

# --------------------------------------------------------------------------
# Intel Xeon E5-2680 v3 reference platform (Table 1 / Figure 5 baseline)
# --------------------------------------------------------------------------

#: Haswell core clock [Hz] (2.5 GHz base).
INTEL_CLOCK_HZ = 2.5e9

#: DP flops/cycle/core with AVX2 FMA (2 ports x 4 lanes x 2).
INTEL_FLOPS_PER_CYCLE = 16

#: Peak DP per core [flop/s].
INTEL_CORE_PEAK_FLOPS = INTEL_FLOPS_PER_CYCLE * INTEL_CLOCK_HZ

#: Achievable per-core memory bandwidth [bytes/s] in a loaded socket.
INTEL_CORE_BANDWIDTH = 5.5e9

#: Cores per Xeon E5-2680 v3.
INTEL_CORES_PER_SOCKET = 12

#: Typical achieved fraction of peak for SE kernels on Haswell.
INTEL_KERNEL_EFFICIENCY = 0.12

# --------------------------------------------------------------------------
# Sunway TaihuLight system (paper Sections 5.1)
# --------------------------------------------------------------------------

#: Nodes (= SW26010 processors) in the full machine.
TAIHULIGHT_NODES = 40960

#: Total cores.
TAIHULIGHT_TOTAL_CORES = TAIHULIGHT_NODES * SW_CORES_PER_PROCESSOR

#: Nodes per supernode (fully connected via customized network board).
TAIHULIGHT_NODES_PER_SUPERNODE = 256

#: Peak performance of the machine [flop/s] ("over 125 PFlops").
TAIHULIGHT_PEAK_FLOPS = 125.4e15

#: Linpack performance [flop/s].
TAIHULIGHT_LINPACK_FLOPS = 93e15

#: MPI point-to-point latency within a supernode [s].
NET_LATENCY_INTRA_SUPERNODE = 1.0e-6

#: MPI point-to-point latency across supernodes (through central switch) [s].
NET_LATENCY_INTER_SUPERNODE = 2.2e-6

#: Node injection bandwidth [bytes/s] (~12 GB/s usable of 16 GB/s link).
NET_NODE_BANDWIDTH = 12e9

#: Bandwidth tax when crossing the central switch under load.
NET_INTER_SUPERNODE_BW_FACTOR = 0.7

# --------------------------------------------------------------------------
# CAM-SE / HOMME model configuration constants
# --------------------------------------------------------------------------

#: GLL points per element edge (CAM-SE production configuration).
NP = 4

#: Vertical levels used in the paper's scaling experiments.
NLEV_PAPER = 128

#: Vertical levels in the CAM validation runs (CAM5 suite).
NLEV_CAM = 30

#: Number of advected tracers in the CAM5-like configuration.
QSIZE_CAM = 25

#: Tracer-advection subcycles per dynamics step (RK-SSP in euler_step).
TRACER_SUBCYCLES = 3

#: Approximate horizontal resolution [km] for an ne value:
#: the cubed sphere has 4*ne elements around the equator, each with np-1=3
#: intervals, so resolution ~ 40075 km / (4 * ne * 3).
def ne_resolution_km(ne: int) -> float:
    """Average equatorial grid spacing in km for a cubed sphere of size ne."""
    return 40075.0 / (4.0 * ne * (NP - 1))
