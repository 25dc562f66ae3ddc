"""Chaos harness: deterministic worker-fault scenarios with a bitwise
serial oracle.

The supervision layer (:mod:`repro.parallel.supervisor`, DESIGN.md §12)
claims that any worker fault — crash, hang, late result, corrupted
result — is recovered locally while the trajectory stays **bitwise
identical** to the serial run.  This module makes that claim testable
with the same :class:`~repro.resilience.faults.FaultInjector` that
makes network faults testable: every scenario is a seeded,
deterministic task schedule on an injector plus the engine knobs that
make the fault observable fast, and :func:`run_scenario` executes the
faulty parallel integration next to a fault-free serial one and
compares the gathered states byte for byte.

Scenarios (all keyed to task ids in the first RK stage of one step, one
task per shard of the model's ``groups``, so they fire mid-batch; step
0 by default or, with ``at_step``, a later one — the steady state).  A
DSS task has two stages, the pack and, past the batch's barrier, the
sum; the ids a scenario draws name the pack, and the same ids plus
:data:`~repro.parallel.engine.STAGE_TIDS` the sum:

- ``kill-worker`` — a worker self-SIGKILLs before computing; the
  supervisor sees the crash, respawns the slot, redistributes.
- ``stall-heartbeat`` — a worker stops heartbeating and sleeps; the
  supervisor declares it hung past ``heartbeat_timeout`` and replaces
  it.
- ``delay-result`` — a worker computes, then sleeps past the batch's
  ``result_timeout``; the driver treats it as overdue and re-issues its
  tasks.
- ``corrupt-result`` — one bit of a result array flips after the
  digest stamp; the driver's integrity check rejects it and re-executes.
- ``mixed`` — one kill plus one corrupted result in the same run.

Use from tests, ``examples/self_healing_run.py``, and the CI
``chaos-smoke`` job::

    report = run_scenario("kill-worker", workers=2, seed=0)
    assert report["bitwise_identical"]
    assert report["recovery"]["respawns"] >= 1
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from ..resilience.faults import BitFlip, FaultInjector

__all__ = ["SCENARIOS", "scenario_spec", "run_scenario"]

#: Scenario name -> (its faults in draw order, each ``(kind, seconds)``
#: with kind one of kill / stall / delay / corrupt and seconds the
#: stall's or delay's length; engine keyword overrides that make the
#: fault detectable quickly).  Timeouts are deliberately generous against
#: the fault's own duration so slow CI machines classify the fault the
#: same way fast ones do.
SCENARIOS: dict[str, tuple[tuple, dict]] = {
    "kill-worker": ((("kill", None),), {}),
    "stall-heartbeat": ((("stall", 60.0),), {"heartbeat_timeout": 1.5}),
    "delay-result": ((("delay", 45.0),), {"result_timeout": 3.0}),
    "corrupt-result": ((("corrupt", None),), {}),
    "mixed": ((("kill", None), ("corrupt", None)), {}),
}


def scenario_spec(name: str, workers: int, tasks: int, seed: int = 0,
                  first_task: int | None = None) -> tuple[FaultInjector, dict]:
    """Build the seeded injector and engine overrides for one scenario.

    Task ids are drawn from ``[first_task, first_task + tasks)``, by
    default ``first_task = workers``: the engine's start-up ping takes
    ids ``0..workers-1``, and the next ``tasks`` ids — one per shard of
    the model, ``len(model.groups)`` — are the first RK stage's tasks,
    dispatched as one batch.  A later stage's first id moves the same
    draw there.  The same arguments draw the same distinct ids (one
    seeded permutation of the span); more faults than ids raise
    ``ValueError``.
    """
    try:
        kinds, overrides = SCENARIOS[name]
    except KeyError:
        raise KernelError(
            f"unknown chaos scenario {name!r}; "
            f"pick one of {sorted(SCENARIOS)}"
        ) from None
    first = workers if first_task is None else first_task
    if len(kinds) > tasks:
        raise ValueError(f"cannot schedule {len(kinds)} faults over {tasks} task ids")
    picks = first + np.random.default_rng(seed).permutation(tasks)[:len(kinds)]
    drawn = {k: {int(t): s for (kind, s), t in zip(kinds, picks) if kind == k}
             for k in ("kill", "stall", "delay", "corrupt")}
    faults = FaultInjector(
        seed=seed, kill_tasks=tuple(drawn["kill"]), stall_tasks=drawn["stall"],
        delay_tasks=drawn["delay"],
        bitflips=[BitFlip(task=t) for t in drawn["corrupt"]])
    return faults, dict(overrides)


def run_scenario(
    name: str,
    *,
    ne: int = 2,
    nranks: int = 4,
    steps: int = 2,
    workers: int = 2,
    seed: int = 0,
    at_step: int = 0,
    tracer=None,
) -> dict:
    """Run one chaos scenario against the shallow-water model and its
    serial oracle; return a JSON-friendly report.

    The faulty run uses ``workers`` pool workers and the scenario's
    seeded injector (:func:`scenario_spec`) as its ``faults``; the
    oracle is the same model at ``workers=0``.  The report's
    ``bitwise_identical`` is the byte-level comparison of the two
    gathered final states — the acceptance property — alongside the
    engine's recovery tallies, its degrade history and the injector's
    event counts, so a scenario can also assert *how* it survived (e.g.
    a kill recovers via respawn, never via whole-pool degrade).
    ``at_step`` picks the step whose first RK stage takes the faults.
    """
    from ..homme.distributed import DistributedShallowWater, rank_groups
    from ..mesh.cubed_sphere import CubedSphereMesh

    if not 0 <= at_step < steps:
        raise KernelError(f"at_step {at_step} outside a {steps}-step run")
    mesh = CubedSphereMesh(ne, 4)
    with DistributedShallowWater(mesh, nranks=nranks) as serial:
        serial.run_steps(steps)
        ref = serial.gather_state()
        # The pool model's shards: one task each per RK stage, three a step.
        tasks = len(rank_groups(serial.hx.elem_offsets, ref, workers))
    faults, overrides = scenario_spec(
        name, workers, tasks, seed, workers + at_step * 3 * tasks)
    with DistributedShallowWater(
        mesh, nranks=nranks, workers=workers, tracer=tracer, faults=faults,
        engine_kwargs=overrides,
    ) as chaotic:
        chaotic.run_steps(steps)
        got = chaotic.gather_state()
        desc = chaotic.engine.describe()
        health = chaotic.engine.health().to_json()
    identical = bool(
        np.array_equal(ref.h, got.h) and np.array_equal(ref.v, got.v)
    )
    return {
        "scenario": name,
        "seed": seed,
        "spec": {"kill_tasks": sorted(faults.kill_tasks),
                 "stall_tasks": sorted(faults.stall_tasks),
                 "delay_tasks": sorted(faults.delay_tasks),
                 "corrupt_tasks": [bf.task for bf in faults.bitflips]},
        "ne": ne,
        "nranks": nranks,
        "tasks_per_stage": len(chaotic.groups),
        "steps": steps,
        "at_step": at_step,
        "workers": workers,
        "engine_overrides": overrides,
        "bitwise_identical": identical,
        "pool_active_at_end": desc["active"],
        "recovery": desc["recovery"],
        "transport": desc["transport"],
        "leaked_shm": chaotic.engine.leaked_shm(),  # after close(): must be []
        "degrade_reasons": desc["degrade_reasons"],
        "health": health,
        "fault_events": faults.summary(),
    }
