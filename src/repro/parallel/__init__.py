"""``repro.parallel``: real multi-core execution for the reproduction.

Everything else in this codebase models parallelism — simulated rank
clocks, simulated CPE clusters — while executing on one Python process.
This package is where the reproduction finally *runs* on multiple
cores: a persistent ``multiprocessing`` worker pool executes the
per-shard work of the distributed models (:mod:`repro.homme.distributed`,
the engine's one client; its task functions live in
:mod:`repro.parallel.dycore`) across real cores — every compute task and
both halves of every DSS, the pack and the sum — while SimMPI's
deterministic simulated clocks remain the timing model.  A pool model's
shard arrays stay resident in shared memory both the driver and its
workers map (:mod:`repro.parallel.resident`); a task names them — and
every other input, staged into the engine's own arena — by reference,
and only halo rows move between shards.

The contract (DESIGN.md §10):

- **Determinism.** Workers only ever compute *independent* work units
  (one shard's tendencies, or its own DSS slots).  Every cross-rank
  reduction — DSS accumulation, allreduce — sums in one canonical order
  (global point row, global element), so results are **bitwise
  identical** to serial execution wherever the reduction runs.
- **Fallback.** ``workers <= 1``, an unavailable ``fork`` start
  method, or any pool start-up failure silently degrades to in-process
  serial execution of the very same task functions.
- **Contexts.** An engine is built around the read-only objects its
  tasks compute against (``contexts=``, the shard geometries); workers
  inherit them through ``fork`` and a task receives the one its meta
  indexes.
- **Self-healing.** Every engine recovers worker crashes, hangs,
  overdue results, and corrupted results locally — respawn the
  slot, redistribute only its in-flight tasks, re-execute digest
  failures — without giving up the pool or the bitwise contract
  (DESIGN.md §12).  :mod:`repro.parallel.chaos` proves it with
  seeded fault scenarios — task schedules on a
  :class:`~repro.resilience.faults.FaultInjector` — against a serial
  oracle.
"""

from .engine import (  # noqa: F401
    ParallelEngine,
    PendingRun,
    WorkerStats,
    available_cores,
    context_nbytes,
    worker_track,
)
from .supervisor import (  # noqa: F401
    WorkerSupervisor,
    result_digest,
)
from .chaos import (  # noqa: F401
    SCENARIOS,
    run_scenario,
    scenario_spec,
)

__all__ = [
    "ParallelEngine",
    "PendingRun",
    "WorkerStats",
    "available_cores",
    "context_nbytes",
    "worker_track",
    "WorkerSupervisor",
    "result_digest",
    "SCENARIOS",
    "run_scenario",
    "scenario_spec",
]
