"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class LDMOverflowError(ReproError):
    """Raised when an allocation does not fit in a CPE's 64 KB scratchpad."""

    def __init__(self, requested: int, available: int, label: str = "") -> None:
        self.requested = requested
        self.available = available
        self.label = label
        super().__init__(
            f"LDM overflow{f' for {label}' if label else ''}: "
            f"requested {requested} B, only {available} B free"
        )


class LDMAllocationError(ReproError):
    """Raised on invalid scratchpad free/read (double free, unknown handle)."""


class RegCommError(ReproError):
    """Raised on invalid register-communication usage (off-mesh target,
    non-row/column destination, payload size mismatch)."""


class DMAError(ReproError):
    """Raised on malformed DMA descriptors (negative size, bad stride)."""


class TopologyError(ReproError):
    """Raised for invalid network topology queries (unknown node id)."""


class SimMPIError(ReproError):
    """Raised on simulated-MPI misuse: an unknown rank, a cost that is not
    finite and >= 0, a receive with no matching send, a message of the
    wrong size."""


class SimMPITimeoutError(SimMPIError):
    """Raised when a receive exhausts its retry budget: the matching
    message was dropped and every retransmission was dropped too."""


class ResilienceError(ReproError):
    """Raised when fault recovery fails (rollback budget exhausted,
    no healthy CPEs left in a core group, unrecoverable state)."""


class CheckpointCorruptError(ResilienceError):
    """Raised when a checkpoint fails its CRC32 integrity check on load."""


class MeshError(ReproError):
    """Raised for invalid mesh construction or connectivity queries."""


class PartitionError(ReproError):
    """Raised when a domain decomposition request is infeasible
    (more ranks than elements, empty rank)."""


class ConfigurationError(ReproError):
    """Raised for inconsistent model/run configurations."""


class KernelError(ReproError):
    """Raised when a kernel is invoked with inconsistent state shapes."""


class HaloSizeError(SimMPIError, KernelError):
    """Raised when a halo message's size differs from the rows its
    receiver expects: a protocol error of the communicator and a shape
    error of the exchange that declared the rows."""


class TranslationError(ReproError):
    """Raised by the source-to-source loop translator on untransformable IR."""


class FootprintError(ReproError):
    """Raised by the memory-footprint analyzer on unresolvable access sets."""


class BaselineError(ReproError):
    """Raised by the FV3/MPAS baseline models on unsupported configurations."""
