"""Model I/O: history files and restart round-trips.

CAM's timing includes I/O ("Results reported on basis of: whole
application with I/O"); on TaihuLight the daily history write is a
serialized gather through rank 0 — the resolution-proportional term in
the whole-CAM performance model (:mod:`repro.perf.scaling`).  Here:

- :mod:`~repro.io.history` — a self-describing binary history format
  (header + named float64 records), written from gathered model state
  and readable back for analysis;
- :mod:`~repro.io.restart` — bit-exact model restart files on it.
"""

from .history import HistoryWriter, HistoryReader, HistoryRecord
from .restart import save_restart, load_restart

__all__ = [
    "HistoryWriter",
    "HistoryReader",
    "HistoryRecord",
    "save_restart",
    "load_restart",
]
