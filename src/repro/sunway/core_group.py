"""One core group (CG): an MPE, an 8x8 CPE cluster, a memory controller.

On TaihuLight, "each CG corresponds to one MPI process" (paper Section
5.3); the backends execute one rank's kernel work on one
:class:`CoreGroup`.  The CG aggregates CPE cycle/traffic counters into
:class:`~repro.sunway.perf.PerfCounters`, enforces the shared memory
channel (all 64 CPEs divide ~33 GB/s), and models the MPE as the
management core that drives MPI and runs serial sections.
"""

from __future__ import annotations

from .. import constants as C
from ..errors import ResilienceError
from .cpe import CPE
from .perf import PerfCounters
from .spec import SW26010Spec, DEFAULT_SPEC


class CoreGroup:
    """One MPE + one CPE cluster sharing a memory controller."""

    def __init__(self, cg_id: int = 0, spec: SW26010Spec = DEFAULT_SPEC) -> None:
        self.cg_id = cg_id
        self.spec = spec
        self.cpes = [
            CPE(r, c, spec)
            for r in range(spec.cpe_rows)
            for c in range(spec.cpe_cols)
        ]
        self.mpe_cycles = 0.0
        self._failed: set[tuple[int, int]] = set()

    # -- lookup ------------------------------------------------------------

    def cpe(self, row: int, col: int) -> CPE:
        """The CPE at mesh position (row, col)."""
        return self.cpes[row * self.spec.cpe_cols + col]

    @property
    def n_cpes(self) -> int:
        return len(self.cpes)

    # -- graceful degradation ---------------------------------------------

    def disable_cpe(self, row: int, col: int) -> None:
        """Mark the CPE at (row, col) failed: it takes no further work.

        Refused, with nothing changed, if it is the last healthy CPE.
        """
        self.cpe(row, col)  # bounds check
        if (row, col) not in self._failed and self.n_healthy == 1:
            raise ResilienceError(
                f"core group {self.cg_id}: cannot disable the last healthy CPE"
            )
        self._failed.add((row, col))

    def disable_cpes(self, n: int) -> None:
        """Fail ``n`` CPEs (highest mesh positions first).

        ``n`` must leave one CPE healthy; a refusal changes nothing.
        """
        alive = [c for c in reversed(self.cpes) if c.coord not in self._failed]
        if not (0 <= n < len(alive)):
            raise ResilienceError(
                f"cannot disable {n} of {len(alive)} healthy CPEs"
            )
        for cpe in alive[:n]:
            self.disable_cpe(*cpe.coord)

    @property
    def healthy_cpes(self) -> list[CPE]:
        """CPEs still accepting work."""
        return [c for c in self.cpes if c.coord not in self._failed]

    @property
    def n_healthy(self) -> int:
        return len(self.healthy_cpes)

    @property
    def degradation(self) -> float:
        """Cluster slowdown from failed CPEs (1.0 = fully healthy).

        Work re-tiles evenly over the survivors, so a cluster with k of
        64 CPEs alive runs its compute-bound kernels 64/k slower.
        """
        return self.n_cpes / self.n_healthy

    # -- MPE model -----------------------------------------------------------

    def mpe_scalar_seconds(self, flops: float) -> float:
        """Seconds for the MPE to execute ``flops`` of scalar work.

        The MPE is a full RISC core but much weaker than a Xeon core for
        numerics; Table 1 shows MPE-only kernels 2-10x slower than one
        Intel core.  We model it as a fraction of the Intel core's
        *achieved* kernel rate.
        """
        intel_rate = C.INTEL_CORE_PEAK_FLOPS * C.INTEL_KERNEL_EFFICIENCY
        mpe_rate = intel_rate * C.SW_MPE_RELATIVE_SCALAR_SPEED
        return flops / mpe_rate

    def charge_mpe(self, seconds: float) -> None:
        """Charge seconds of MPE time (serial sections, MPI driving)."""
        if seconds < 0:
            raise ValueError("seconds cannot be negative")
        self.mpe_cycles += seconds * self.spec.clock_hz

    # -- aggregation -----------------------------------------------------------

    def collect(self, vector_efficiency: float = 1.0) -> PerfCounters:
        """Aggregate all CPE counters into one CG-level PERF snapshot.

        ``cycles`` is the *slowest healthy CPE's* busy time (the cluster
        advances at the pace of its critical lane), plus MPE time.  Counters accumulated on a CPE before
        it failed still count — its work was real — but its lane no
        longer gates the cluster, and the snapshot reports the
        :attr:`degradation` factor of the surviving configuration.
        """
        perf = PerfCounters()
        slowest = 0.0
        healthy = self.healthy_cpes
        for cpe in self.cpes:
            perf.dp_flops += cpe.vector.flops
            perf.vector_instructions += cpe.vector.instructions
            perf.dma_bytes_get += cpe.dma.bytes_get
            perf.dma_bytes_put += cpe.dma.bytes_put
            perf.ldm_high_water = max(perf.ldm_high_water, cpe.ldm.high_water)
        for cpe in healthy:
            slowest = max(slowest, cpe.total_cycles(vector_efficiency))
        perf.cycles = slowest + self.mpe_cycles
        perf.degradation = self.degradation
        return perf

    def bandwidth_bound_seconds(self, bytes_moved: float) -> float:
        """Lower bound on time from the shared memory channel alone.

        This is the paper's "projected performance upper bound based on
        the memory capacities (assuming bandwidth as the major
        constraint)" applied to one CG.
        """
        return bytes_moved / self.spec.cg_memory_bandwidth

    def reset(self) -> None:
        """Clear all CPE state (failed CPEs stay failed)."""
        for cpe in self.cpes:
            cpe.reset()
        self.mpe_cycles = 0.0
