"""Functional + performance-model simulator of the SW26010 many-core CPU.

The SW26010 (paper Section 5.2) has 4 core groups (CGs); each CG has one
management processing element (MPE), an 8x8 mesh of computing processing
elements (CPEs) with 64 KB user-managed scratchpads (LDM), a memory
controller, and register communication along CPE rows/columns.

This subpackage models the pieces the paper's redesign exploits:

- :mod:`~repro.sunway.spec` — the architecture description;
- :mod:`~repro.sunway.ldm` — the scratchpad allocator (capacity enforced);
- :mod:`~repro.sunway.dma` — the DMA engine with a block-size/stride
  efficiency model and double buffering;
- :mod:`~repro.sunway.regcomm` — row/column register communication:
  collectives move values within the call (no mailbox) and count the
  cycles the Athread backend charges;
- :mod:`~repro.sunway.vector` — the 256-bit vector unit including the
  ``shuffle`` instruction used by the transposition scheme;
- :mod:`~repro.sunway.cpe`, :mod:`~repro.sunway.core_group` — the
  composition hierarchy (one CG per MPI rank, as CAM-SE assigns them);
- :mod:`~repro.sunway.perf` — PERF-style hardware counters.
"""

from .spec import SW26010Spec, DEFAULT_SPEC
from .ldm import LDM, LDMArray, LDMBlock
from .dma import DMAEngine, DMARequest
from .regcomm import CPEMeshComm
from .vector import VectorUnit, shuffle, transpose4x4
from .cpe import CPE
from .core_group import CoreGroup
from .perf import PerfCounters

__all__ = [
    "SW26010Spec",
    "DEFAULT_SPEC",
    "LDM",
    "LDMArray",
    "LDMBlock",
    "DMAEngine",
    "DMARequest",
    "CPEMeshComm",
    "VectorUnit",
    "shuffle",
    "transpose4x4",
    "CPE",
    "CoreGroup",
    "PerfCounters",
]
