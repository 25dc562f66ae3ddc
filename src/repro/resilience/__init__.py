"""Resilience subsystem: fault injection, checkpoint/restart, self-healing.

The paper's full-machine runs (10.6 M cores for multi-day Katrina
integrations) and the follow-up 40-million-core work both treat
resilience as a first-class engineering cost: nodes slow down, messages
get lost, DMA transfers flip bits, CPEs fail.  This package gives the
simulated machine the same survival kit:

- :class:`~repro.resilience.faults.FaultInjector` — one seeded,
  deterministic source for every injected fault (message drops/delays,
  laggard ranks, DMA, state and result bit flips, worker kills, stalls
  and delays);
- :class:`~repro.resilience.checkpoint.Checkpointer` — CRC32-checked,
  atomically written, bitwise-restoring snapshots of every model — the
  serial restart too;
- :class:`~repro.resilience.validator.StateValidator` — post-step
  NaN/Inf/negative-thickness detection;
- :class:`~repro.resilience.runner.ResilientRunner` — checkpoint,
  validate, roll back, re-execute; the faulty run's final state matches
  the fault-free trajectory bitwise.

The network layer cooperates: :class:`~repro.network.simmpi.SimMPI`
retransmits dropped messages with exponential backoff from the sender's
posted copy, and the Sunway layer degrades gracefully when CPEs die
(:meth:`~repro.sunway.core_group.CoreGroup.disable_cpes`).
"""

from .checkpoint import Checkpointer, snapshot_crc
from .faults import BitFlip, FaultEvent, FaultInjector, flip_bit
from .runner import ResilientRunner, RunReport
from .validator import StateValidator

__all__ = [
    "BitFlip",
    "Checkpointer",
    "FaultEvent",
    "FaultInjector",
    "ResilientRunner",
    "RunReport",
    "StateValidator",
    "flip_bit",
    "snapshot_crc",
]
