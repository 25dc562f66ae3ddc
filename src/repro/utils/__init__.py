"""Shared utilities: simulated clocks, structured run logs, table rendering.

Cross-cutting plumbing with no paper section of its own, but in
service of two of the paper's reporting conventions:

- :mod:`~repro.utils.timing` — :class:`SimClock`, the
  simulated-time base that lets every performance number in the repo
  (Table 1 timings, Figure 6--8 scaling curves) be deterministic
  model seconds rather than wall clock;
- :mod:`~repro.utils.logging` — :class:`RunLog`, the structured
  (JSONL-exportable) event log each experiment driver records its
  paper-vs-measured rows into;
- :mod:`~repro.utils.tables` — ASCII rendering for those comparison
  tables, in the layout of the paper's Table 1/Table 3.
"""

from .timing import SimClock
from .tables import render_table
from .logging import RunLog

__all__ = ["SimClock", "render_table", "RunLog"]
