"""Shared utilities: structured run logs, table rendering.

Cross-cutting plumbing with no paper section of its own, but in
service of the paper's reporting conventions:

- :mod:`~repro.utils.logging` — :class:`RunLog`, the structured
  (JSONL-exportable) event log each experiment driver records its
  paper-vs-measured rows into;
- :mod:`~repro.utils.tables` — ASCII rendering for those comparison
  tables, in the layout of the paper's Table 1/Table 3.
"""

from .tables import render_table
from .logging import RunLog

__all__ = ["render_table", "RunLog"]
