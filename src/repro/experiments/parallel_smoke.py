"""Parallel-engine smoke experiment: real cores, same bits.

Not a paper artifact — a reproduction-infrastructure check that rides
the same harness.  It integrates the distributed shallow-water and
primitive-equation models serially and through the
:mod:`repro.parallel` worker pool and asserts the engine's contract
(DESIGN.md Section 10):

- parallel trajectories are **bitwise identical** to serial;
- the simulated clocks agree exactly (SimMPI stays the timing model);
- when the pool starts, work is actually dispatched to workers;
- the pool dispatches what the in-process engine does — the same calls
  per step, each one task per shard (the pool has a shard per worker,
  so it may have more) — so a change that splits tasks again shows up
  as a number;
- a distributed step makes one exchange per synchronisation point, so a
  field split into its own exchange again shows up as a number too;
- results return through shared memory: from the first
  primitive-equation step on, nothing but descriptors travels on the
  result queue, and the shard arrays stay resident — per step the transport
  carries no more bytes than the tracer mass fixer's rows (what its
  shapes say), the whole state never;
- the physics runs on every path: a Held-Suarez-forced pool run is the
  whole-mesh model's forced trajectory, byte for byte.

The "paper" column holds the contract's expected values (all boolean),
so a MISS here means the determinism rule broke, not that a scale-down
drifted.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from ..homme.element import ElementGeometry, ElementState
from ..homme.timestep import PrimitiveEquationModel
from ..mesh.cubed_sphere import CubedSphereMesh
from ..parallel import available_cores
from ..perf.report import ComparisonTable
from ..physics import PhysicsSuite


def _prim_state(ne: int, nlev: int = 8, qsize: int = 2):
    mesh = CubedSphereMesh(ne, 4)
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=qsize)
    state = ElementState.isothermal_rest(ElementGeometry(mesh), cfg)
    rng = np.random.default_rng(20)
    state.T += rng.standard_normal(state.T.shape)
    state.qdp[:] = (0.5 + rng.random(state.qdp.shape)) * state.dp3d[:, None]
    return cfg, mesh, state


def _count_calls(obj, name: str) -> list[int]:
    """Count calls of ``obj.name`` from here on; item 0 is the running tally."""
    fn, tally = getattr(obj, name), [0]

    def counted(*args, **kwargs):
        tally[0] += 1
        return fn(*args, **kwargs)
    setattr(obj, name, counted)
    return tally


def run_parallel_smoke(
    verbose: bool = True,
    workers: int = 2,
    steps: int = 2,
) -> ComparisonTable:
    """Compare parallel vs serial distributed integration, byte for byte."""
    table = ComparisonTable("parallel")
    workers = max(2, int(workers))
    if verbose:
        print(f"parallel smoke: {workers} workers over "
              f"{available_cores()} core(s), {steps} steps per model")

    mesh8 = CubedSphereMesh(8, 4)
    with DistributedShallowWater(mesh8, nranks=4) as ser, \
            DistributedShallowWater(mesh8, nranks=4, workers=workers) as par:
        ser.run_steps(steps)
        par.run_steps(steps)
        gs, gp = ser.gather_state(), par.gather_state()
        table.add("sw ne8 bitwise h", 1.0,
                  1.0 if np.array_equal(gs.h, gp.h) else 0.0, "boolean", 0.0)
        table.add("sw ne8 bitwise v", 1.0,
                  1.0 if np.array_equal(gs.v, gp.v) else 0.0, "boolean", 0.0)
        table.add("sw ne8 simulated clocks equal", 1.0,
                  1.0 if ser.max_rank_time() == par.max_rank_time() else 0.0,
                  "boolean", 0.0)
        pool_ok = (not par.engine.active) or par.engine.tasks_parallel > 0
        table.add("pool dispatched work (or clean fallback)", 1.0,
                  1.0 if pool_ok else 0.0, "boolean", 0.0)
        hv = par.health()
        table.health = hv.to_json()
        table.add("sw ne8 health not critical", 1.0,
                  1.0 if hv.verdict != "critical" else 0.0, "boolean", 0.0)
        if verbose:
            print(f"  health: {hv.verdict}"
                  + (f" ({len(hv.findings)} finding(s))" if hv.findings
                     else ""))
        if verbose and not par.engine.active:
            print(f"  note: pool fell back to serial "
                  f"({par.engine.fallback_reason})")

    cfg, mesh4, state = _prim_state(ne=4)
    with DistributedPrimitiveEquations(cfg, mesh4, state, nranks=4,
                                       dt=30.0) as ser, \
            DistributedPrimitiveEquations(cfg, mesh4, state, nranks=4,
                                          dt=30.0, workers=workers) as par:
        prim_steps = max(2, steps)  # the bytes row reads steps 2 onward
        exchanges = _count_calls(ser.hx, "exchange")
        allreduces = _count_calls(ser.mpi, "allreduce")
        ser.run_steps(prim_steps)
        whole = PrimitiveEquationModel(cfg, mesh4, init=state.copy(), dt=30.0)
        passes = _count_calls(whole, "_pack_and_sum")
        whole.run_steps(prim_steps)
        # 3 RK stages, 3 per tracer subcycle, 2 per hyperviscosity sweep.
        points = 3 + 3 * cfg.tracer_subcycles + 2 * ser._hv_subcycles
        table.add("distributed exchanges == synchronisation points", 1.0,
                  float(exchanges[0] == points * prim_steps), "boolean", 0.0)
        if verbose:
            print(f"  recipe: {exchanges[0] / prim_steps:g} exchanges, "
                  f"{points} synchronisation points, "
                  f"{passes[0] / prim_steps:g} serial DSS passes, "
                  f"{allreduces[0] / prim_steps:g} allreduces, "
                  f"{ser.engine.calls / prim_steps:g} dispatches per step")
        pings = dict(par.engine.transport)  # the start-up pings' results
        transport, moved = [], []
        for _ in range(prim_steps):
            par.step()
            transport.append(dict(par.engine.transport))
            moved.append(sum(w.bytes_in + w.bytes_out for w in par.engine.stats))
        gs, gp = ser.gather_state(), par.gather_state()
        off_queue = (not par.engine.active) or (
            transport[-1]["results_queued"] == pings["results_queued"]
            and transport[-1]["results_shm"] > pings["results_shm"])
        table.add("prim ne4 result queue idle from step 1 (or clean fallback)",
                  1.0, 1.0 if off_queue else 0.0, "boolean", 0.0)
        if verbose:
            print("  transport: " + "; ".join(
                f"after step {i + 1} {t['results_shm']} results via shared "
                f"memory, {t['results_queued']} via the queue"
                for i, t in enumerate(transport)))
        # No array crosses per step: every array a task is handed is a
        # resident per-element array, and the fixer's global (Q, L) scale
        # rides in its tasks' meta (descriptors are not array bytes).
        per_step = (moved[-1] - moved[0]) / (prim_steps - 1)
        table.add("prim ne4 transport bytes per step after step 1 == 0 "
                  "(or clean fallback)", 1.0,
                  1.0 if not par.engine.active or per_step == 0 else 0.0,
                  "boolean", 0.0)
        if verbose:
            print(f"  bytes: {per_step:.0f} transport bytes per step after "
                  f"step 1, bound 0 (the fixer's scale rides in the meta), "
                  f"state {sum(a.nbytes for a in vars(gs).values())}")
        # (calls, tasks, shards) per engine, the pool's start-up ping left out.
        pool = (par.engine.calls, par.engine.tasks_parallel
                + par.engine.tasks_serial - par.engine.workers, len(par.groups))
        inproc = (ser.engine.calls, ser.engine.tasks_serial, len(ser.groups))
        same_dispatch = pool[0] == inproc[0] and all(
            tasks == calls * shards for calls, tasks, shards in (pool, inproc))
        table.add("pool calls == in-process calls, one task per shard "
                  "(or clean fallback)", 1.0,
                  1.0 if not par.engine.active or same_dispatch else 0.0,
                  "boolean", 0.0)
        if verbose:
            print("  dispatch: " + "; ".join(
                f"{who} {calls / prim_steps:g} calls, {tasks / prim_steps:g} "
                f"tasks per step over {shards} shard(s)"
                for who, (calls, tasks, shards) in (("pool", pool),
                                                    ("in-process", inproc))))
        same = all(np.array_equal(getattr(gs, f), getattr(gp, f))
                   for f in ("v", "T", "dp3d", "qdp"))
        table.add("prim ne4 bitwise (v,T,dp3d,qdp)", 1.0,
                  1.0 if same else 0.0, "boolean", 0.0)
        table.add("prim ne4 simulated clocks equal", 1.0,
                  1.0 if ser.max_rank_time() == par.max_rank_time() else 0.0,
                  "boolean", 0.0)

    whole = PrimitiveEquationModel(cfg, mesh4, init=state.copy(), dt=30.0,
                                   forcing=PhysicsSuite(("held_suarez",)))
    whole.run_steps(prim_steps)
    with DistributedPrimitiveEquations(
            cfg, mesh4, state, nranks=4, dt=30.0, workers=workers,
            forcing=PhysicsSuite(("held_suarez",))) as par:
        par.run_steps(prim_steps)
        gp = par.gather_state()
    same = all(np.array_equal(getattr(gp, f), getattr(whole.state, f))
               for f in ("v", "T", "dp3d", "qdp"))
    table.add(f"Held-Suarez forcing, 4 ranks on {workers} workers == serial, "
              f"bitwise", 1.0, 1.0 if same else 0.0, "boolean", 0.0)

    if verbose:
        print(table.render())
    return table
