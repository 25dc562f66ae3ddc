"""Backend protocol and the kernel workload description.

A :class:`KernelWorkload` captures everything about a kernel that the
execution models need: arithmetic volume, unique memory traffic, the
structural properties the paper's redesign exploits (vertical
dependency chains, transposed access, tracer-loop reuse), and the
per-CPE LDM working set.  Backends turn a workload into a
:class:`KernelReport` with simulated seconds.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class KernelWorkload:
    """Per-process workload of one kernel invocation.

    Attributes
    ----------
    name:
        Kernel name (Table 1 names).
    flops:
        Double-precision operations for the whole local workload.
    unique_bytes:
        Bytes that must cross main memory at least once (compulsory
        traffic: inputs read once + outputs written once).
    reread_factor_openacc:
        How much the OpenACC copyin-per-loop-nest discipline inflates
        traffic over ``unique_bytes`` (the paper's euler_step measured
        ~10x; Section 7.3).
    serial_fraction:
        Fraction of the arithmetic that a directive-only port cannot
        parallelize across CPEs (vertical dependency chains, DSS
        accumulations).  The Athread redesign converts this to parallel
        work via the register-communication scan.
    scan_levels:
        Number of column-scan traversals per invocation (pressure,
        geopotential, omega) — costed explicitly on the Athread path.
    transpose_points:
        GLL points whose data must switch axis layout (vertical remap);
        strided on OpenACC, shuffle+regcomm on Athread.
    ldm_tile_bytes:
        Working-set bytes per CPE for the Athread tiling plan (checked
        against the 64 KB LDM).
    vec_intel / vec_openacc / vec_athread:
        Achieved fraction of each platform's vector peak.
    launch_regions:
        Accelerated loop nests per invocation (OpenACC pays a kernel
        launch overhead for each).
    """

    name: str
    flops: float
    unique_bytes: float
    reread_factor_openacc: float = 1.0
    serial_fraction: float = 0.0
    scan_levels: int = 0
    transpose_points: int = 0
    ldm_tile_bytes: int = 16 * 1024
    vec_intel: float = 0.12
    vec_openacc: float = 0.04
    vec_athread: float = 0.25
    #: Fraction of the MPE's scalar rate this kernel sustains (cache
    #: behaviour of the unmodified code on the management core).
    mpe_efficiency: float = 0.5
    launch_regions: int = 1
    #: Whether the directive port can stage its working set through the
    #: LDM at all (single-collapse restriction); when False the OpenACC
    #: path falls back to direct gld/gst global loads.
    acc_ldm_fit: bool = True

    def __post_init__(self) -> None:
        if self.flops <= 0 or self.unique_bytes <= 0:
            raise ValueError(f"{self.name}: flops and unique_bytes must be positive")
        if not (0.0 <= self.serial_fraction < 1.0):
            raise ValueError(f"{self.name}: serial_fraction must be in [0, 1)")
        if self.reread_factor_openacc < 1.0:
            raise ValueError(f"{self.name}: reread factor cannot be < 1")

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per unique byte (roofline x-axis)."""
        return self.flops / self.unique_bytes


@dataclass
class KernelReport:
    """Result of executing a workload on a backend."""

    name: str
    backend: str
    seconds: float
    flops: float
    bytes_moved: float
    compute_seconds: float = 0.0
    memory_seconds: float = 0.0
    overhead_seconds: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        """Sustained GFlop/s of the kernel on this backend."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


class Backend(abc.ABC):
    """Executes kernel workloads under one hardware/programming model.

    Assigning a real :class:`~repro.obs.Tracer` to :attr:`tracer` turns
    every executed kernel into a span (``cat="kernel"``) on the
    ``backend.<name>`` track, laid back-to-back on the backend's own
    simulated timeline and annotated with flop/byte counts — the input
    the flight recorder's roofline attribution report consumes.
    """

    name: str = "abstract"
    #: Observability hook; the class default records nothing.
    tracer = NULL_TRACER

    @abc.abstractmethod
    def execute(self, wl: KernelWorkload) -> KernelReport:
        """Simulated execution of one kernel invocation."""

    def _trace_report(self, rep: KernelReport) -> KernelReport:
        """Record ``rep`` as a kernel span; returns ``rep`` for chaining.

        Kernels are placed end-to-end at a per-backend time cursor, so
        the track reads as the backend's serialized execution order.
        """
        if not self.tracer.enabled:
            return rep
        t0 = getattr(self, "_trace_cursor", 0.0)
        t1 = t0 + rep.seconds
        self._trace_cursor = t1
        self.tracer.span_at(
            f"backend.{self.name}", rep.name, t0, t1, cat="kernel",
            backend=self.name, flops=rep.flops, bytes=rep.bytes_moved,
            compute_seconds=rep.compute_seconds,
            memory_seconds=rep.memory_seconds,
            overhead_seconds=rep.overhead_seconds,
            bound=rep.notes.get("bound", ""),
        )
        return rep
