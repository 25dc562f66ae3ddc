"""The benchmark definitions behind ``BENCH_homme.json``.

Wall-clock benchmarks time the same kernel or step phase through both
execution paths (:mod:`repro.backends.functional_exec`) — ``fused``,
what every model runs, and ``batched``, the reference — so every group
comes with a derived ``fused_speedup`` (the fused contraction path must
stay >= 1.5x batched on the primitive-equation RHS chain).  The euler
group times the models' tracer phase,
:func:`repro.homme.timestep.euler_step_subcycled`, on the one-shard
layout.  Simulated-clock
benchmarks rerun the Table-1 kernels through the four backend models;
they are exactly deterministic and drift only when the performance
model itself changes.

Only the *fused* wall entries carry ``meta.gated = True``: a 25% wall
gate on a reference path nothing runs in production polices nothing.
The batched entries are recorded for the derived speedups (which have
committed floors).
"""

from __future__ import annotations

import numpy as np

from ..backends import ALL_BACKENDS, table1_workloads
from ..backends.functional_exec import EXECUTION_PATHS
from ..config import ModelConfig
from ..homme.element import ElementGeometry, ElementState
from ..homme.shallow_water import ShallowWaterModel, williamson2_initial
from ..homme.timestep import PrimitiveEquationModel, euler_step_subcycled
from ..mesh.cubed_sphere import CubedSphereMesh
from .harness import SCHEMA, BenchResult, machine_calibration, time_wall

#: Derived speedup floors enforced by the comparison gate.
SPEEDUP_FLOORS = {
    # Fused-contraction kernels (DESIGN.md §14): the acceptance floor
    # lives on the primitive-equation RHS chain (measured ~2.0-2.8x at
    # full repeats; single repeats=1 runs have dipped to the floor,
    # which is why no unit test asserts it); the
    # euler floor is a guardrail against the fused tracer stage
    # degenerating to batched-equivalent cost.  The ne8 SW RK step's
    # fused speedup is reported but not floored: the step is DSS-
    # dominated, and its repeats=1 spread (1.0-1.3x) sits on top of any
    # meaningful floor.
    "prim_rhs.ne4.fused_speedup": 1.5,
    "euler_step.ne4.fused_speedup": 1.1,
}


def _prim_state(ne: int = 4, nlev: int = 8, qsize: int = 4, seed: int = 7):
    """A deterministic, dynamically active primitive-equation state."""
    mesh = CubedSphereMesh(ne, 4)
    geom = ElementGeometry(mesh)
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=qsize)
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(seed)
    state.v += 1e-5 * rng.standard_normal(state.v.shape)
    state.T += rng.standard_normal(state.T.shape)
    state.qdp[:] = (0.5 + rng.random(state.qdp.shape)) * state.dp3d[:, None]
    return state, geom


def run_suite(quick: bool = False, repeats: int | None = None) -> dict:
    """Run every benchmark; returns the JSON-ready report dict.

    ``quick`` lowers the repeat count (CI gate); an explicit
    ``repeats`` overrides both modes (tests use ``repeats=1``).
    """
    # The wall kernels are a few ms each, so repeats are cheap; min-of-3
    # proved too fragile against ambient load spikes (its run-to-run
    # spread is ~3x that of min-of-9), hence the generous counts.
    if repeats is None:
        repeats = 7 if quick else 11
    results: list[BenchResult] = []

    # -- wall clock: ne8 shallow-water RK step, both exec paths ------------
    mesh8 = CubedSphereMesh(8, 4)
    init8 = williamson2_initial(mesh8)
    for path in EXECUTION_PATHS:
        model = ShallowWaterModel(mesh8, state=init8.copy(), exec_path=path)

        def reset(model=model):
            model.state = init8.copy()

        secs = time_wall(model.step, repeats=repeats, setup=reset)
        results.append(BenchResult(
            name=f"sw_rk_step.ne8.{path}", clock="wall", seconds=secs,
            repeats=repeats,
            meta={"ne": 8, "nelem": mesh8.nelem, "kernel": "sw RK3 step",
                  "gated": path == "fused"},
        ))

    # -- wall clock: primitive-equation RHS, both exec paths ---------------
    state, geom = _prim_state()
    for path, ex in EXECUTION_PATHS.items():
        secs = time_wall(lambda: ex.compute_rhs(state, geom), repeats=repeats)
        results.append(BenchResult(
            name=f"prim_rhs.ne4.{path}", clock="wall", seconds=secs,
            repeats=repeats,
            meta={"ne": 4, "nlev": state.nlev, "kernel": "compute_rhs",
                  "gated": path == "fused"},
        ))

    # -- wall clock: the models' euler phase, both exec paths --------------
    # One SSP-RK2 subcycle of the whole tracer stack on the one-shard
    # layout: the stages, the DSS after each, the limiter and its fixer.
    cfg = ModelConfig(ne=4, nlev=state.nlev, qsize=state.qsize,
                      tracer_subcycles=1)
    for path in EXECUTION_PATHS:
        model = PrimitiveEquationModel(cfg, geom.mesh, init=state, dt=60.0,
                                       exec_path=path)
        qdp0 = model.state.qdp  # the phase replaces qdp, never writes it

        def reset(model=model, qdp0=qdp0):
            model.state.qdp = qdp0

        secs = time_wall(
            lambda model=model: euler_step_subcycled(model, model.states),
            repeats=repeats, setup=reset,
        )
        results.append(BenchResult(
            name=f"euler_step.ne4.{path}", clock="wall", seconds=secs,
            repeats=repeats,
            meta={"ne": 4, "qsize": state.qsize,
                  "kernel": "euler_step_subcycled", "gated": path == "fused"},
        ))

    # -- simulated clock: Table-1 kernels through the backend models -------
    workloads = table1_workloads()
    backends = {name: cls() for name, cls in ALL_BACKENDS.items()}
    for kernel, wl in workloads.items():
        for bname, backend in backends.items():
            results.append(BenchResult(
                name=f"table1.{kernel}.{bname}", clock="simulated",
                seconds=backend.execute(wl).seconds,
                meta={"kernel": kernel, "backend": bname},
            ))

    # -- simulated clock: prim nranks sweep (Table-4 SYPD curve) -----------
    # The scaling-study entries: the full primitive-equation step
    # distributed over a sweep of simulated rank counts, once with the
    # flat recursive-doubling allreduce and once with the hierarchical
    # node/supernode/central-switch combine tree.  The trajectory is
    # bitwise identical across combine algorithms and rank counts; the
    # simulated clocks (comm measured through SimMPI plus the calibrated
    # per-element compute charge, so SYPD reflects a full step) are
    # exactly deterministic, so these entries gate at the 1%
    # simulated-drift tolerance like the table1 section.
    from ..homme.distributed import (
        DistributedPrimitiveEquations,
        charge_calibrated_compute,
    )

    scaling_dt = 300.0
    scaling_nranks = (4, 16) if quick else (4, 16, 64)
    prim_state4, _ = _prim_state()
    mesh4 = CubedSphereMesh(4, 4)
    cfg4 = ModelConfig(ne=4, nlev=prim_state4.nlev, qsize=prim_state4.qsize)
    for nranks in scaling_nranks:
        for combine in ("flat", "hierarchical"):
            model = DistributedPrimitiveEquations(
                cfg4, mesh4, prim_state4, nranks=nranks, dt=scaling_dt,
                combine=combine,
            )
            model.step()
            charge_calibrated_compute(model, steps=1)
            t_machine = model.max_rank_time()
            sypd = scaling_dt / (365.0 * t_machine) if t_machine > 0 else 0.0
            results.append(BenchResult(
                name=f"scaling.prim_ne4.nranks{nranks}.{combine}",
                clock="simulated", seconds=t_machine,
                meta={"ne": 4, "nranks": nranks, "combine": combine,
                      "dt": scaling_dt, "sypd": sypd,
                      "hierarchical_allreduces":
                          model.mpi.hierarchical_allreduces,
                      "kernel": "distributed prim step"},
            ))
            model.close()

    # -- derived speedups --------------------------------------------------
    by_name = {r.name: r for r in results}
    derived: dict[str, float] = {}
    for group in ("sw_rk_step.ne8", "prim_rhs.ne4", "euler_step.ne4"):
        # Fused-path gain over the batched reference.
        derived[f"{group}.fused_speedup"] = (
            by_name[f"{group}.batched"].seconds
            / by_name[f"{group}.fused"].seconds
        )
    return {
        "schema": SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "calibration_s": machine_calibration(),
        "benchmarks": [r.to_json() for r in results],
        "derived": derived,
        "floors": SPEEDUP_FLOORS,
    }


def render_report(report: dict) -> str:
    """Human-readable summary of a suite report."""
    lines = [
        f"repro.bench report (schema {report['schema']}, "
        f"repeats={report['repeats']}, "
        f"calibration={report['calibration_s'] * 1e3:.2f} ms)",
        "",
        f"{'benchmark':<42} {'clock':<10} {'seconds':>12}",
        "-" * 66,
    ]
    for b in report["benchmarks"]:
        lines.append(f"{b['name']:<42} {b['clock']:<10} {b['seconds']:>12.6f}")
    lines.append("")
    for name, val in report["derived"].items():
        floor = report.get("floors", {}).get(name)
        # `is not None`, not truthiness: a 0.0 floor (or any fractional
        # overhead floor rounding to 0) must still render.
        bound = f"  (floor {floor:.2f}x)" if floor is not None else ""
        lines.append(f"{name:<42} {val:>10.2f}x{bound}")
    return "\n".join(lines)
