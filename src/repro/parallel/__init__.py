"""``repro.parallel``: real multi-core execution for the reproduction.

Everything else in this codebase models parallelism — simulated rank
clocks, simulated CPE clusters — while executing on one Python process.
This package is where the reproduction finally *runs* on multiple
cores: a persistent ``multiprocessing`` worker pool with
``shared_memory``-backed element arrays executes the per-rank compute
of the distributed models (:mod:`repro.homme.distributed`, the engine's
one client; its task functions live in :mod:`repro.parallel.dycore`)
across real cores, while SimMPI's deterministic simulated clocks remain
the timing model.

The contract (DESIGN.md §10):

- **Determinism.** Workers only ever compute *independent* work units
  (one simulated rank's tendencies, or its boundary / inner element
  rows).  Every cross-rank reduction — DSS accumulation, allreduce —
  sums in one canonical order (global point row, global element), so
  results are **bitwise identical** to serial execution wherever the
  reduction runs.
- **Fallback.** ``workers <= 1``, an unavailable ``fork`` start
  method, or any pool start-up failure silently degrades to in-process
  serial execution of the very same task functions.
- **Validation.** ``validate=True`` mirrors the 1e-12 kernel check
  of :func:`repro.homme.fused.cross_validate_fused`: every parallel
  result is recomputed serially and compared bitwise.
- **Self-healing.** Supervised engines (the default) recover worker
  crashes, hangs, overdue results, and corrupted result blocks locally
  — respawn the slot, redistribute only its in-flight tasks, re-execute
  integrity failures — without giving up the pool or the bitwise
  contract (DESIGN.md §12).  :mod:`repro.parallel.chaos` proves it with
  seeded fault scenarios against a serial oracle.
"""

from .engine import (  # noqa: F401
    ParallelEngine,
    ParallelError,
    PendingRun,
    SERIAL_ENGINE,
    WorkerStats,
    available_cores,
    context_nbytes,
    register_context,
    unregister_context,
    worker_track,
)
from .supervisor import (  # noqa: F401
    ChaosSpec,
    WorkerSupervisor,
    result_crc,
)
from .chaos import (  # noqa: F401
    SCENARIOS,
    run_scenario,
    scenario_spec,
)

__all__ = [
    "ParallelEngine",
    "ParallelError",
    "PendingRun",
    "SERIAL_ENGINE",
    "WorkerStats",
    "available_cores",
    "context_nbytes",
    "register_context",
    "unregister_context",
    "worker_track",
    "ChaosSpec",
    "WorkerSupervisor",
    "result_crc",
    "SCENARIOS",
    "run_scenario",
    "scenario_spec",
]
