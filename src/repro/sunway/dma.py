"""The CPE DMA engine: main-memory <-> LDM transfers with a cost model.

On the SW26010, CPEs access main memory through explicit DMA (gld/gst
direct loads are catastrophically slow).  The redesign in the paper lives
or dies on DMA behaviour:

- bandwidth efficiency depends strongly on block size and contiguity —
  small or strided transfers waste most of the 132 GB/s;
- per-descriptor startup latency makes "many tiny gets" a losing pattern;
- double buffering overlaps the next tile's transfer with computation.

:class:`DMAEngine` is functional (bytes really move between numpy
buffers) and charges cycles to its core group's memory-channel model.
Transfers are tracked per engine so the backends can report total traffic
— this is how we verify the paper's "data transfer decreased to 10% of
the OpenACC solution" claim (Section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DMAError
from ..obs.tracer import NULL_TRACER
from .spec import SW26010Spec, DEFAULT_SPEC


@dataclass
class DMARequest:
    """One queued DMA descriptor (for double-buffered operation)."""

    nbytes: int
    cycles: float
    tag: str = ""
    completed: bool = False


def dma_efficiency(block_bytes: int, stride_bytes: int = 0) -> float:
    """Fraction of peak memory bandwidth achieved by one DMA transfer.

    Measured SW26010 behaviour (Xu et al., "Benchmarking SW26010"):
    efficiency ramps with block size, saturating near peak around 1-4 KB
    contiguous blocks; strided (non-unit row) transfers pay an extra
    penalty because each burst touches a fresh DRAM row.

    The curve below is a smooth fit with the right asymptotes:
    ~12% at 32 B, ~50% at 256 B, ~80% at 1 KB, ~90% (peak efficiency)
    beyond 4 KB.
    """
    if block_bytes <= 0:
        raise DMAError(f"block size must be positive, got {block_bytes}")
    # Saturating ramp: eff = peak * b / (b + b_half), b_half = 256 B.
    eff = 0.9 * block_bytes / (block_bytes + 256.0)
    if stride_bytes > block_bytes:
        # Strided bursts: derate by how sparse the access is, floor at 25%.
        sparsity = block_bytes / stride_bytes
        eff *= max(0.25, sparsity ** 0.25)
    return min(eff, 0.9)


class DMAEngine:
    """Per-CPE DMA engine with cost accounting and double buffering.

    Parameters
    ----------
    spec:
        Machine description (startup cycles, bandwidth).
    bandwidth_share:
        Fraction of the CG memory bandwidth this engine can use.  When all
        64 CPEs stream simultaneously each sees ~1/64th of the channel;
        backends set this from their concurrency model.
    tracer / track:
        Observability hook (:mod:`repro.obs`): when a real tracer is
        passed, every transfer becomes a span on ``track``, timed on the
        engine's own cycle counter converted to seconds (its timeline
        is cumulative busy time).
    """

    def __init__(
        self,
        spec: SW26010Spec = DEFAULT_SPEC,
        bandwidth_share: float = 1.0 / 64.0,
        faults=None,
        tracer=None,
        track: str = "dma",
    ) -> None:
        if not (0.0 < bandwidth_share <= 1.0):
            raise DMAError(f"bandwidth_share must be in (0,1], got {bandwidth_share}")
        self.spec = spec
        self.bandwidth_share = bandwidth_share
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.track = track
        #: Optional FaultInjector whose scheduled bit flips corrupt the
        #: destination buffer of a transfer (silent data corruption).
        self.faults = faults
        self.bytes_get = 0
        self.bytes_put = 0
        self.transfer_count = 0
        self.total_cycles = 0.0
        self.corrupted_transfers = 0
        self._pending: list[DMARequest] = []

    # -- cost model ----------------------------------------------------------

    @property
    def bandwidth(self) -> float:
        """This engine's share of the CG memory channel [bytes/s]."""
        return self.spec.cg_memory_bandwidth * self.bandwidth_share

    def transfer_cycles(self, nbytes: int, stride_bytes: int = 0) -> float:
        """Cycles for one transfer of ``nbytes`` (startup + streaming)."""
        if nbytes <= 0:
            raise DMAError(f"transfer size must be positive, got {nbytes}")
        eff = dma_efficiency(nbytes, stride_bytes)
        stream_s = nbytes / (self.bandwidth * eff / self.spec.dma_peak_efficiency)
        return self.spec.dma_startup_cycles + stream_s * self.spec.clock_hz

    def _trace_transfer(self, name: str, nbytes: int, cycles: float, tag: str) -> None:
        """Record a transfer span on the engine's cycle timeline."""
        t1 = self.total_cycles / self.spec.clock_hz
        t0 = (self.total_cycles - cycles) / self.spec.clock_hz
        self.tracer.span_at(self.track, name, t0, t1, cat="dma",
                            nbytes=nbytes, tag=tag)

    # -- functional transfers --------------------------------------------------

    def get(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        stride_bytes: int = 0,
        tag: str = "",
    ) -> float:
        """DMA-get: main memory ``src`` -> LDM ``dst``.  Returns cycles."""
        if src.nbytes != dst.nbytes:
            raise DMAError(
                f"size mismatch: src {src.nbytes} B vs dst {dst.nbytes} B ({tag})"
            )
        np.copyto(dst.reshape(-1), src.reshape(-1).astype(dst.dtype, copy=False))
        if self.faults is not None and self.faults.on_dma(dst):
            self.corrupted_transfers += 1
        cycles = self.transfer_cycles(src.nbytes, stride_bytes)
        self.bytes_get += src.nbytes
        self.transfer_count += 1
        self.total_cycles += cycles
        if self.tracer.enabled:
            self._trace_transfer("dma.get", src.nbytes, cycles, tag)
        return cycles

    def put(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        stride_bytes: int = 0,
        tag: str = "",
    ) -> float:
        """DMA-put: LDM ``src`` -> main memory ``dst``.  Returns cycles."""
        if src.nbytes != dst.nbytes:
            raise DMAError(
                f"size mismatch: src {src.nbytes} B vs dst {dst.nbytes} B ({tag})"
            )
        np.copyto(dst.reshape(-1), src.reshape(-1).astype(dst.dtype, copy=False))
        if self.faults is not None and self.faults.on_dma(dst):
            self.corrupted_transfers += 1
        cycles = self.transfer_cycles(src.nbytes, stride_bytes)
        self.bytes_put += src.nbytes
        self.transfer_count += 1
        self.total_cycles += cycles
        if self.tracer.enabled:
            self._trace_transfer("dma.put", src.nbytes, cycles, tag)
        return cycles

    # -- accounting-only interface (perf-model paths without real arrays) -----

    def charge_get(self, nbytes: int, stride_bytes: int = 0, tag: str = "") -> float:
        """Account for a get without moving data (performance-model path)."""
        cycles = self.transfer_cycles(nbytes, stride_bytes)
        self.bytes_get += nbytes
        self.transfer_count += 1
        self.total_cycles += cycles
        if self.tracer.enabled:
            self._trace_transfer("dma.get", nbytes, cycles, tag)
        return cycles

    def charge_put(self, nbytes: int, stride_bytes: int = 0, tag: str = "") -> float:
        """Account for a put without moving data (performance-model path)."""
        cycles = self.transfer_cycles(nbytes, stride_bytes)
        self.bytes_put += nbytes
        self.transfer_count += 1
        self.total_cycles += cycles
        if self.tracer.enabled:
            self._trace_transfer("dma.put", nbytes, cycles, tag)
        return cycles

    # -- double buffering ------------------------------------------------------

    def prefetch(self, nbytes: int, stride_bytes: int = 0, tag: str = "") -> DMARequest:
        """Issue an asynchronous get whose cost may overlap computation.

        Returns a request to pass to :meth:`overlap_cost`.
        """
        cycles = self.transfer_cycles(nbytes, stride_bytes)
        req = DMARequest(nbytes, cycles, tag)
        self.bytes_get += nbytes
        self.transfer_count += 1
        self._pending.append(req)
        return req

    def overlap_cost(self, req: DMARequest, compute_cycles: float) -> float:
        """Resolve a prefetch against overlapping computation.

        Returns the *visible* cycles: ``max(transfer, compute)`` — the
        essence of double buffering.  The engine's ``total_cycles``
        records the visible time, so backend timings include overlap.
        """
        if req.completed:
            raise DMAError("DMA request already completed")
        req.completed = True
        self._pending.remove(req)
        visible = max(req.cycles, compute_cycles)
        self.total_cycles += visible
        if self.tracer.enabled:
            self._trace_transfer("dma.prefetch", req.nbytes, visible, req.tag)
        return visible

    # -- reporting ---------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Total bytes moved in both directions."""
        return self.bytes_get + self.bytes_put

    def reset_counters(self) -> None:
        """Zero traffic and cycle counters (between kernels)."""
        self.bytes_get = 0
        self.bytes_put = 0
        self.transfer_count = 0
        self.total_cycles = 0.0
        self.corrupted_transfers = 0
        self._pending.clear()
