"""Architecture description of the SW26010 processor.

All simulator components take a :class:`SW26010Spec` so tests can build
reduced machines (fewer CPEs, smaller LDM) and ablations can vary
hardware parameters (e.g. "what if the LDM were 128 KB?").
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants as C


@dataclass(frozen=True)
class SW26010Spec:
    """Parameters of one SW26010 processor.

    Defaults reproduce the published chip; see :data:`DEFAULT_SPEC`.
    """

    core_groups: int = C.SW_CORE_GROUPS
    cpe_rows: int = C.SW_CPE_MESH_ROWS
    cpe_cols: int = C.SW_CPE_MESH_COLS
    clock_hz: float = C.SW_CLOCK_HZ
    ldm_bytes: int = C.SW_LDM_BYTES
    vector_dp_lanes: int = C.SW_VECTOR_DP_LANES
    flops_per_cycle: int = C.SW_CPE_FLOPS_PER_CYCLE
    memory_bandwidth: float = C.SW_MEMORY_BANDWIDTH
    memory_bytes: int = C.SW_MEMORY_BYTES
    regcomm_latency_cycles: int = C.SW_REGCOMM_LATENCY_CYCLES
    regcomm_bytes: int = C.SW_REGCOMM_BYTES
    dma_startup_cycles: int = C.SW_DMA_STARTUP_CYCLES
    dma_peak_efficiency: float = C.SW_DMA_PEAK_EFFICIENCY

    def __post_init__(self) -> None:
        if self.core_groups < 1:
            raise ValueError("core_groups must be >= 1")
        if self.cpe_rows < 1 or self.cpe_cols < 1:
            raise ValueError("CPE mesh dimensions must be >= 1")
        if self.ldm_bytes < 1024:
            raise ValueError("ldm_bytes unrealistically small")
        if not (0.0 < self.dma_peak_efficiency <= 1.0):
            raise ValueError("dma_peak_efficiency must be in (0, 1]")

    @property
    def cpes_per_cg(self) -> int:
        """CPEs in one core group (mesh rows x cols)."""
        return self.cpe_rows * self.cpe_cols

    @property
    def cores_per_processor(self) -> int:
        """All cores: per CG, the MPE plus the CPE cluster."""
        return self.core_groups * (self.cpes_per_cg + 1)

    @property
    def cpe_peak_flops(self) -> float:
        """Peak DP flop rate of one CPE [flop/s]."""
        return self.flops_per_cycle * self.clock_hz

    @property
    def cg_peak_flops(self) -> float:
        """Peak DP flop rate of one core group's CPE cluster [flop/s]."""
        return self.cpes_per_cg * self.cpe_peak_flops

    @property
    def processor_peak_flops(self) -> float:
        """Peak DP flop rate of the whole chip [flop/s]."""
        return self.core_groups * self.cg_peak_flops

    @property
    def cg_memory_bandwidth(self) -> float:
        """Main-memory bandwidth available to one CG [bytes/s]."""
        return self.memory_bandwidth / self.core_groups

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at the CPE clock."""
        return cycles / self.clock_hz


#: The published SW26010 configuration.
DEFAULT_SPEC = SW26010Spec()
