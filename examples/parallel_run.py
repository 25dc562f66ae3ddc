#!/usr/bin/env python
"""Real multi-core execution of a distributed run, bit-for-bit.

Runs the ne8 distributed shallow-water model twice — in-process serial
and through the ``repro.parallel`` worker pool — and shows:

1. the trajectories are **bitwise identical** (the engine's structural
   determinism rule: workers compute per-rank partials, every combine
   sums in one canonical order);
2. the simulated clocks agree exactly (SimMPI stays the timing model —
   real cores change wall time only);
3. the wall-clock effect, plus the engine's own per-worker counters.

Run:  python examples/parallel_run.py [--workers N] [--steps N]
                                      [--trace OUT.json] [--profile]
                                      [--report OUT.json]

``--trace`` attaches a tracer, from which the driver derives the pool's
telemetry (DESIGN.md §13) out of the stamps on each worker reply, and
writes one merged Chrome/Perfetto timeline: per-worker process tracks
with each task's span and its unpack / compute sub-spans, heartbeat-age
and queue-depth counter tracks, and supervisor instants.  ``--profile``
additionally runs the in-worker sampling profiler and prints the top
frames.

With ``--report``, a JSON summary (timings, per-worker stats, the
bitwise verdict, the health report) is written for downstream tooling
— the CI smoke job uploads it as an artifact.
"""

import argparse
import json
import time

import numpy as np

from repro.homme.distributed import DistributedShallowWater
from repro.mesh import CubedSphereMesh
from repro.obs import (
    PROFILE_HZ,
    MetricsRegistry,
    Tracer,
    collect_parallel_engine,
    render_profile,
)
from repro.parallel import available_cores


def timed_run(mesh, nranks, workers, steps, trace=False, profile=False):
    tracer = Tracer("parallel_run") if (trace or profile) else None
    engine_kwargs = {"profile_hz": PROFILE_HZ} if profile else None
    with DistributedShallowWater(mesh, nranks=nranks, workers=workers,
                                 tracer=tracer,
                                 engine_kwargs=engine_kwargs) as m:
        t0 = time.perf_counter()
        m.run_steps(steps)
        wall = time.perf_counter() - t0
        health = m.health()
        out = {
            "state": m.gather_state(),
            "wall_s": wall,
            "simulated_s": m.max_rank_time(),
            "engine": m.engine.describe(),
            "health": health.to_json(),
            "metrics": collect_parallel_engine(
                MetricsRegistry("parallel"), m.engine).snapshot(),
            "profile": (dict(m.engine.profile_frames),
                        m.engine.profile_samples),
        }
    # Export after close(): the engine flushes profile counter tracks
    # into the recorder on shutdown.
    if tracer is not None:
        out["chrome"] = tracer.recorder.chrome_trace()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=min(4, available_cores()),
                    help="worker processes for the parallel run (default: "
                         "min(4, available cores))")
    ap.add_argument("--steps", type=int, default=5, help="RK3 steps to run")
    ap.add_argument("--trace", metavar="OUT.json", default=None,
                    help="trace the pool (task spans with unpack/compute "
                         "sub-spans, heartbeat-age and queue-depth "
                         "counters, derived from each worker reply's "
                         "stamps) and write the merged Chrome/Perfetto "
                         "trace here")
    ap.add_argument("--profile", action="store_true",
                    help="run the in-worker sampling profiler "
                         f"({PROFILE_HZ:g} Hz) and print the top frames")
    ap.add_argument("--report", metavar="OUT.json", default=None,
                    help="write a JSON summary here")
    ns = ap.parse_args()

    mesh = CubedSphereMesh(ne=8)
    nranks = 4
    print(f"ne8 shallow water, {nranks} simulated ranks, {ns.steps} steps; "
          f"machine has {available_cores()} core(s)")

    trace = ns.trace is not None
    serial = timed_run(mesh, nranks, workers=0, steps=ns.steps)
    par = timed_run(mesh, nranks, workers=ns.workers, steps=ns.steps,
                    trace=trace, profile=ns.profile)

    same_h = np.array_equal(serial["state"].h, par["state"].h)
    same_v = np.array_equal(serial["state"].v, par["state"].v)
    same_clock = serial["simulated_s"] == par["simulated_s"]
    pool = par["engine"]
    if pool["active"]:
        print(f"pool: {pool['workers']} workers, "
              f"{pool['tasks_parallel']} tasks dispatched; results: "
              f"{pool['transport']['results_shm']} via shared memory, "
              f"{pool['transport']['results_queued']} via the queue")
        for w in pool["per_worker"]:
            print(f"  worker/{w['worker']}: {w['tasks']} tasks, "
                  f"{w['busy_seconds'] * 1e3:.1f} ms busy, "
                  f"{w['bytes_in'] / 1e6:.1f} MB in")
    else:
        print(f"pool fell back to serial: {pool['fallback_reason']}")
    print(f"bitwise identical: h={same_h} v={same_v}; "
          f"simulated clocks equal: {same_clock}")
    print(f"wall: serial {serial['wall_s']:.3f}s, "
          f"parallel {par['wall_s']:.3f}s "
          f"(x{serial['wall_s'] / par['wall_s']:.2f})")

    hv = par["health"]
    print(f"health: {hv['verdict'].upper()}"
          + "".join(f"\n  [{f['severity']}] {f['rule']}: {f['message']}"
                    for f in hv["findings"]))

    if ns.profile:
        frames, samples = par["profile"]
        print(f"worker profile ({samples} samples):")
        print(render_profile(frames, samples, top=8))

    if ns.report:
        summary = {
            "workers": ns.workers,
            "steps": ns.steps,
            "cores": available_cores(),
            "bitwise_identical": bool(same_h and same_v),
            "simulated_clocks_equal": bool(same_clock),
            "serial_wall_s": serial["wall_s"],
            "parallel_wall_s": par["wall_s"],
            "pool": {k: v for k, v in pool.items() if k != "per_worker"},
            "per_worker": pool["per_worker"],
            "health": par["health"],
            "metrics": par["metrics"],
        }
        with open(ns.report, "w") as f:
            json.dump(summary, f, indent=2)
        print(f"[report] -> {ns.report}")

    if ns.trace:
        with open(ns.trace, "w") as f:
            json.dump(par["chrome"], f)
        print(f"[trace] {len(par['chrome']['traceEvents'])} events -> {ns.trace} "
              "(open in https://ui.perfetto.dev)")

    return 0 if (same_h and same_v and same_clock) else 1


if __name__ == "__main__":
    raise SystemExit(main())
