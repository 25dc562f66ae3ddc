"""Model I/O: history files.

CAM's timing includes I/O ("Results reported on basis of: whole
application with I/O"); on TaihuLight the daily history write is a
serialized gather through rank 0 — the resolution-proportional term in
the whole-CAM performance model (:mod:`repro.perf.scaling`).  Here
:mod:`~repro.io.history` is a self-describing binary history format
(header + named float64 records), written from gathered model state and
readable back for analysis.  Restart is the model's snapshot through
:class:`~repro.resilience.checkpoint.Checkpointer`, for every model.
"""

from .history import HistoryWriter, HistoryReader, HistoryRecord

__all__ = [
    "HistoryWriter",
    "HistoryReader",
    "HistoryRecord",
]
