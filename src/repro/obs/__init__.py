"""repro.obs — the unified observability layer.

Three coordinated pieces (DESIGN.md Section 7):

- :mod:`repro.obs.tracer` — hierarchical spans over **simulated** time
  (:class:`Tracer`), with a zero-cost disabled default
  (:data:`NULL_TRACER`);
- :mod:`repro.obs.recorder` — the :class:`FlightRecorder` event store
  with JSONL, Chrome trace-event, and text-summary exports;
- :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` unifying
  every simulator counter under one dotted namespace, plus the
  per-component ``collect_*`` helpers;
- :mod:`repro.obs.roofline_report` — per-kernel roofline attribution
  computed from recorded kernel spans;
- :mod:`repro.obs.telemetry` / :mod:`repro.obs.profiler` /
  :mod:`repro.obs.health` — cross-process telemetry for the worker
  pool (DESIGN.md §13): canonical projections of the wall-clock traces
  the driver derives from each reply's stamps, a wall-clock sampling
  profiler, and the run health monitor.  ``python -m repro.obs`` offers
  ``summary`` / ``merge`` / ``diff`` over trace and metrics artifacts.

Quickstart::

    from repro.obs import Tracer
    from repro.homme.distributed import DistributedShallowWater
    from repro.mesh import CubedSphereMesh

    tracer = Tracer()
    model = DistributedShallowWater(CubedSphereMesh(ne=4), nranks=4,
                                    tracer=tracer)
    model.run_steps(2)
    tracer.recorder.write_chrome_trace("trace.json")  # open in Perfetto
"""

from .tracer import NULL_TRACER, NullTracer, Tracer
from .recorder import FlightRecorder, TraceEvent, validate_chrome_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_dma,
    collect_ldm,
    collect_parallel_engine,
    collect_perf_counters,
    collect_simmpi,
    collect_supervisor,
)
from .profiler import PROFILE_HZ, SamplingProfiler, merge_profiles, render_profile
from .telemetry import canonical_metrics_jsonl, canonical_trace_jsonl, quantile
from .health import HealthFinding, HealthMonitor, HealthReport
from .roofline_report import (
    KernelAttribution,
    attribute_kernels,
    render_roofline_report,
    roofline_report,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "FlightRecorder",
    "TraceEvent",
    "validate_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_dma",
    "collect_ldm",
    "collect_parallel_engine",
    "collect_perf_counters",
    "collect_simmpi",
    "collect_supervisor",
    "PROFILE_HZ",
    "SamplingProfiler",
    "merge_profiles",
    "render_profile",
    "canonical_metrics_jsonl",
    "canonical_trace_jsonl",
    "quantile",
    "HealthFinding",
    "HealthMonitor",
    "HealthReport",
    "KernelAttribution",
    "attribute_kernels",
    "render_roofline_report",
    "roofline_report",
]
