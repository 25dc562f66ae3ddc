"""PERF-style hardware counters for the simulated machine.

The paper counts double-precision flops three ways (Section 8.1.1):
manual assembly counting, the Sunway PERF hardware monitor, and PAPI on
an Intel run of the same code.  :class:`PerfCounters` plays the role of
PERF: retired DP-flop and DMA-byte counters that kernels increment and
experiments read.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PerfCounters:
    """Retired-instruction counters for one core group.

    Attributes mirror the events the paper reads from the Sunway PERF
    monitor: retired double-precision arithmetic on the CPE cluster plus
    the memory-traffic events that dominate the bandwidth-bound analysis.
    """

    dp_flops: int = 0
    vector_instructions: int = 0
    dma_bytes_get: int = 0
    dma_bytes_put: int = 0
    ldm_high_water: int = 0
    cycles: float = 0.0
    #: Cluster slowdown from failed CPEs (1.0 = all 64 healthy).
    degradation: float = 1.0

    def add_flops(self, n: int) -> None:
        """Retire ``n`` double-precision arithmetic operations."""
        if n < 0:
            raise ValueError("flop count cannot be negative")
        self.dp_flops += n

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Aggregate counters from another core group / kernel region."""
        self.dp_flops += other.dp_flops
        self.vector_instructions += other.vector_instructions
        self.dma_bytes_get += other.dma_bytes_get
        self.dma_bytes_put += other.dma_bytes_put
        self.ldm_high_water = max(self.ldm_high_water, other.ldm_high_water)
        self.cycles += other.cycles
        self.degradation = max(self.degradation, other.degradation)
        return self

    @property
    def dma_bytes(self) -> int:
        """Total DMA traffic in both directions."""
        return self.dma_bytes_get + self.dma_bytes_put

    def flop_rate(self, seconds: float) -> float:
        """Sustained flop rate [flop/s] over ``seconds`` of execution."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        return self.dp_flops / seconds

    def arithmetic_intensity(self) -> float:
        """Flops per DMA byte (the roofline x-axis)."""
        return self.dp_flops / self.dma_bytes if self.dma_bytes else float("inf")

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for experiment logs."""
        return {
            "dp_flops": self.dp_flops,
            "vector_instructions": self.vector_instructions,
            "dma_bytes_get": self.dma_bytes_get,
            "dma_bytes_put": self.dma_bytes_put,
            "ldm_high_water": self.ldm_high_water,
            "cycles": self.cycles,
            "degradation": self.degradation,
        }
