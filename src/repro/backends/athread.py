"""The Athread backend: the paper's fine-grained redesign.

Everything the directive model could not do (Section 7.3-7.5):

- **LDM-resident reuse**: only compulsory traffic crosses main memory
  (the measured 10x euler_step traffic reduction), moved by DMA in
  large double-buffered blocks that overlap computation;
- **manual vectorization**: explicitly declared vector types raise the
  achieved SIMD fraction (``vec_athread``);
- **register-communication scan**: the vertical dependency chains
  (pressure/geopotential accumulation) become the three-stage parallel
  scan of Figure 2, costing a handful of register hops instead of
  serializing the cluster;
- **shuffle + register transposition**: axis switches (vertical remap)
  run at register speed instead of strided-DMA speed (Figure 3);
- **8 x 16 layer decomposition**: 128 levels split over the 8 CPE rows
  exposes enough parallelism that the whole cluster stays busy.

The scan and transposition terms are the cycles the CPE mesh counts
when it runs the two schemes (:func:`~repro.backends.scan.scan_cycles`,
:func:`~repro.backends.transpose.transpose_cycles_per_point`), once per
:class:`~repro.sunway.spec.SW26010Spec`, on first use.

The tiling plan is validated against the 64 KB LDM: a workload whose
tile does not fit raises, because on the real machine that plan simply
cannot be written.
"""

from __future__ import annotations

from numbers import Integral

from ..errors import LDMOverflowError, ResilienceError
from .base import Backend, KernelReport, KernelWorkload
from .scan import scan_cycles
from .transpose import transpose_cycles_per_point

#: Fraction of DMA streaming that double buffering cannot hide
#: (first/last tile exposure and descriptor issue).
DMA_EXPOSED_FRACTION = 0.08

#: Athread spawn/join overhead per kernel invocation [s] — one region
#: per kernel instead of one per loop nest.
SPAWN_OVERHEAD = 6.0e-6


class AthreadBackend(Backend):
    """64 CPEs with explicit DMA, regcomm, and manual vectorization.

    ``healthy_cpes`` (an integer in 1..64, not a bool) enables graceful
    degradation: a cluster with k < 64 surviving CPEs re-tiles each
    kernel's work evenly over the survivors, so compute-bound kernels
    slow down by 64/k while the memory-bound roofline term is unchanged
    (the shared channel does not care which cores drive it).  The report
    carries the degradation factor so perf models can attribute the
    slowdown.
    """

    name = "athread"

    def __init__(self, spec=None, healthy_cpes: int | None = None) -> None:
        from ..sunway.spec import DEFAULT_SPEC

        self.spec = spec or DEFAULT_SPEC
        if healthy_cpes is None:
            healthy_cpes = self.spec.cpes_per_cg
        if (isinstance(healthy_cpes, bool) or not isinstance(healthy_cpes, Integral)
                or not 1 <= healthy_cpes <= self.spec.cpes_per_cg):
            raise ResilienceError(
                f"healthy_cpes must be in 1..{self.spec.cpes_per_cg}, "
                f"got {healthy_cpes!r}"
            )
        self.healthy_cpes = int(healthy_cpes)

    @property
    def degradation(self) -> float:
        """Compute slowdown factor from failed CPEs (1.0 = healthy)."""
        return self.spec.cpes_per_cg / self.healthy_cpes

    def execute(self, wl: KernelWorkload) -> KernelReport:
        spec = self.spec
        if wl.ldm_tile_bytes > spec.ldm_bytes:
            raise LDMOverflowError(wl.ldm_tile_bytes, spec.ldm_bytes, wl.name)

        cluster_peak = spec.cg_peak_flops / self.degradation
        # The layer decomposition + regcomm scan parallelize the former
        # serial fraction; its cost appears as explicit scan hops below.
        compute = wl.flops / (cluster_peak * wl.vec_athread)

        # Memory: compulsory traffic only, at DMA efficiency; double
        # buffering hides it behind compute except for the exposed tail.
        stream = wl.unique_bytes / (
            spec.cg_memory_bandwidth * spec.dma_peak_efficiency
        )
        memory = stream  # roofline term
        exposed = stream * DMA_EXPOSED_FRACTION

        # Register-communication scan (Figure 2 stage 2) per scan, and the
        # shuffle transposition where the kernel switches axes (Figure 3).
        scan = wl.scan_levels * scan_cycles(spec) / spec.clock_hz
        transpose = wl.transpose_points * transpose_cycles_per_point(spec) / spec.clock_hz

        overhead = SPAWN_OVERHEAD + scan + transpose + exposed
        seconds = max(compute, memory) + overhead
        return self._trace_report(KernelReport(
            name=wl.name,
            backend=self.name,
            seconds=seconds,
            flops=wl.flops,
            bytes_moved=wl.unique_bytes,
            compute_seconds=compute,
            memory_seconds=memory,
            overhead_seconds=overhead,
            notes={
                "bound": "compute" if compute >= memory else "memory",
                "scan_seconds": scan,
                "transpose_seconds": transpose,
                "ldm_tile_bytes": wl.ldm_tile_bytes,
                "healthy_cpes": self.healthy_cpes,
                "degradation": self.degradation,
            },
        ))
