"""repro.bench — the deterministic performance-baseline harness.

The paper's core claim is throughput (3.4 SYPD at ne120, a 10x+ kernel
speedup from the Athread redesign) — so this reproduction tracks its
own performance as a first-class, committed artifact.  ``repro.bench``
times the HOMME hot path on two clocks:

- **wall clock** — the fused vs batched execution paths
  (:func:`repro.backends.functional_exec.homme_execution`) on the ne8
  shallow-water RK step, the primitive-equation RHS, and the
  all-tracer euler step: min-of-repeats ``time.perf_counter`` timings,
  normalized by a fixed machine-calibration workload so baselines
  survive hardware changes;
- **simulated clock** — the Table-1 kernels through the
  Intel/MPE/OpenACC/Athread backend models: exactly deterministic, so
  any drift is a real model change.

``python -m repro.bench`` runs the suite, writes ``BENCH_homme.json``
(schema in DESIGN.md §9), and with ``--compare`` gates against a
committed baseline — CI fails on >25% normalized wall-clock regression,
>1% simulated drift, or the fused/batched speedup dropping below its
floor.  Entry points::

    python -m repro.bench --out BENCH_homme.json          # new baseline
    python -m repro.bench --quick --compare BENCH_homme.json   # CI gate

Layout: :mod:`~repro.bench.harness` (timing + result containers),
:mod:`~repro.bench.suite` (the benchmark definitions),
:mod:`~repro.bench.compare` (baseline comparison and gating).
"""

from .harness import BenchResult, machine_calibration, time_wall
from .suite import run_suite
from .compare import compare_reports, load_report

__all__ = [
    "BenchResult",
    "machine_calibration",
    "time_wall",
    "run_suite",
    "compare_reports",
    "load_report",
]
