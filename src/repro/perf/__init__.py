"""Performance models: SYPD and the scaling models.

- :mod:`~repro.perf.sypd` — simulated-years-per-day arithmetic;
- :mod:`~repro.perf.scaling` — the HOMME step-time model over real
  partitions (Figures 7/8) and the whole-CAM model (Figure 6);
- :mod:`~repro.perf.report` — paper-vs-measured comparison records.
"""

from .sypd import sypd_from_step_time, step_time_for_sypd
from .scaling import HommePerfModel, CAMPerfModel
from .report import ExperimentRecord, ComparisonTable

__all__ = [
    "sypd_from_step_time",
    "step_time_for_sypd",
    "HommePerfModel",
    "CAMPerfModel",
    "ExperimentRecord",
    "ComparisonTable",
]
