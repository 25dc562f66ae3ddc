"""The one place the step benchmark touches the program.

Every import from ``repro`` and every call into it lives here, so an
API rename in the program costs a fix in this file only.  Importing this
module imports numpy and ``repro``; the caller pins the BLAS thread
count in the environment (and starts its set-up clock) first.
"""

from __future__ import annotations

import numpy as np

from repro import constants as C
from repro.config import ModelConfig
from repro.homme import diagnostics
from repro.homme import distributed as dist_mod
from repro.homme import remap as remap_mod
from repro.homme import timestep as timestep_mod
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.shallow_water import williamson2_initial
from repro.mesh.cubed_sphere import CubedSphereMesh
from repro.obs.tracer import Tracer
from repro.parallel.engine import PendingRun, context_nbytes
from repro.parallel.engine import available_cores as cores  # noqa: F401 - used by worker.py
from repro.physics.suite import PhysicsSuite

#: ROADMAP's single production kernel path, used by every workload.
EXEC_PATH = "fused"
EXCHANGE_MODE = "overlap"

#: A cycle is the model's repeating unit: RSPLIT steps of a
#: primitive-equation model hold exactly one vertical remap.
_PRIM = {"ne": 8, "nlev": 16, "qsize": 4, "dt": 562.5,
         "steps_per_cycle": timestep_mod.RSPLIT}

#: The four workloads.  Their names are fixed: later issues state
#: their claims in terms of them.
WORKLOADS: dict[str, dict] = {
    "prim_serial": {**_PRIM, "kind": "serial", "nranks": 1, "workers": 0,
                    "physics": ("held_suarez", "kessler", "radiation")},
    # The one workload that also measures the program's own tracer.
    "prim_dist_inproc": {**_PRIM, "kind": "dist_prim", "nranks": 4,
                         "workers": 0, "program_tracer_run": True},
    "prim_dist_pool": {**_PRIM, "kind": "dist_prim", "nranks": 4,
                       "workers": 2},
    "sw_dist": {"kind": "dist_sw", "ne": 16, "nranks": 16, "workers": 0,
                "steps_per_cycle": 20},
}


def build_mesh(spec: dict) -> CubedSphereMesh:
    return CubedSphereMesh(spec["ne"], C.NP)


def build_geometry(spec: dict, mesh: CubedSphereMesh):
    """Whole-mesh geometry for the primitive-equation inputs and checks.

    Shallow water needs none: its model builds per-rank geometry itself
    and its checks use the mesh's area weights.
    """
    return None if spec["kind"] == "dist_sw" else ElementGeometry(mesh)


def build_inputs(spec: dict, mesh: CubedSphereMesh, geom, seed: int):
    """The arrays the program is started from; all that ``seed`` decides.

    Primitive equations: an isothermal atmosphere at rest plus a smooth
    temperature perturbation of 1 K (three zonal modes, seeded
    amplitudes and phases) and ``qsize`` smooth positive tracer fields
    (water vapour, cloud, rain, one passive).  Shallow water: the
    Williamson-2 steady state with a seeded wind amplitude within 10 %
    of the standard one; every amplitude is an exact steady solution.
    """
    rng = np.random.default_rng(seed)
    if spec["kind"] == "dist_sw":
        u0 = 2.0 * np.pi * C.EARTH_RADIUS / (12 * 86400)
        return williamson2_initial(mesh, u0=u0 * rng.uniform(0.9, 1.1))
    cfg = ModelConfig(ne=spec["ne"], nlev=spec["nlev"], qsize=spec["qsize"])
    state = ElementState.isothermal_rest(geom, cfg)
    lat, lon = geom.lat, geom.lon
    amps = rng.uniform(0.5, 1.0, size=3)
    amps /= amps.sum()
    pert = np.zeros_like(lat)
    for m, (a, phase) in enumerate(zip(amps, rng.uniform(0, 2 * np.pi, 3)), 1):
        pert += a * np.cos(lat) ** m * np.cos(m * lon + phase)
    state.T += pert[:, None]
    levels = (8e-3, 1e-5, 1e-6, 1e-3)
    for q in range(cfg.qsize):
        a, phase = rng.uniform(0.1, 0.5), rng.uniform(0, 2 * np.pi)
        field = levels[q % 4] * (1.0 + a * np.cos(lat) * np.cos(lon + phase))
        state.qdp[:, q] = field[:, None] * state.dp3d
    return state


def build_model(spec: dict, mesh, inputs, workers: int | None = None,
                program_tracer: bool = False):
    """Construct the workload's model from its inputs.

    ``workers`` overrides the spec (the pool workload's in-process twin
    passes 0).  ``program_tracer`` hands the model one of the program's
    own tracers, for measuring what that costs.
    """
    workers = spec["workers"] if workers is None else workers
    tracer = Tracer("step-bench") if program_tracer else None
    common = {"tracer": tracer, "exec_path": EXEC_PATH}
    dist = {"nranks": spec["nranks"], "mode": EXCHANGE_MODE,
            "workers": workers, "pipeline": workers > 0, **common}
    if spec["kind"] == "dist_sw":
        model = dist_mod.DistributedShallowWater(mesh, **dist)
        # The constructor only knows the standard initial state; the
        # seeded one goes in through the public snapshot interface.
        snap = model.snapshot()
        for r, (h, v) in enumerate(zip(model.hx.scatter(inputs.h),
                                       model.hx.scatter(inputs.v))):
            snap[f"h_{r}"], snap[f"v_{r}"] = h, v
        model.restore_snapshot(snap)
        return model
    cfg = ModelConfig(ne=spec["ne"], nlev=spec["nlev"], qsize=spec["qsize"])
    if spec["kind"] == "dist_prim":
        return dist_mod.DistributedPrimitiveEquations(
            cfg, mesh, inputs, dt=spec["dt"], **dist)
    return timestep_mod.PrimitiveEquationModel(
        cfg, mesh=mesh, init=inputs.copy(), dt=spec["dt"],
        forcing=PhysicsSuite(spec["physics"]), **common)


def run_cycle(spec: dict, model, between_steps=None) -> None:
    """One cycle; ``between_steps()`` runs after every step but the last."""
    model.step()
    for _ in range(spec["steps_per_cycle"] - 1):
        if between_steps is not None:
            between_steps()
        model.step()


def dt_of(model) -> float:
    return float(model.dt)


def close_model(model) -> list[str]:
    """Close the model; return the shared-memory blocks its pool leaked."""
    if not hasattr(model, "close"):
        return []
    engine = model.engine
    model.close()
    return engine.leaked_shm()


# -- layers wrapped from outside ------------------------------------------------


def patch_layers(rec, model) -> None:
    """Put a span around every call into a layer's public functions.

    The outermost is ``model.step``: its self time is the driver glue.
    """
    rec.patch(model, "step", "step", "driver")
    for attr, layer in (("compute_and_apply_rhs", "rhs"),
                        ("euler_step_subcycled", "euler"),
                        ("advance_hypervis", "hypervis"),
                        ("vertical_remap", "remap")):
        rec.patch(timestep_mod, attr, attr, layer)
    rec.patch(remap_mod, "vertical_remap", "vertical_remap", "remap")
    rec.patch(ElementGeometry, "dss", "ElementGeometry.dss", "dss")
    if getattr(model, "forcing", None) is not None:
        rec.patch(model, "forcing", "forcing", "physics")
    if hasattr(model, "hx"):
        rec.patch(model.hx, "exchange", "HaloExchanger.exchange", "halo")
        rec.patch(model.mpi, "allreduce", "SimMPI.allreduce",
                  "simmpi.allreduce")
        rec.patch(model.engine, "run", "engine.run", "engine")
        rec.patch(model.engine, "submit", "engine.submit", "engine")
        rec.patch(PendingRun, "wait", "PendingRun.wait", "engine")


def patch_constructors(rec) -> None:
    """Spans around the halo-table and worker-pool constructors, as the
    distributed models look them up."""
    rec.patch(dist_mod, "HaloExchanger", "HaloExchanger()", "setup.halo_tables")
    rec.patch(dist_mod, "ParallelEngine", "ParallelEngine()", "setup.pool_start")


# -- counters and state the program already exposes -----------------------------


def counters(model) -> dict[str, float]:
    """Cumulative public counters of SimMPI and the engine (0 if absent)."""
    out = dict.fromkeys(
        ("messages", "bytes", "comm_wait_sim_s", "retransmissions", "tasks",
         "bytes_in", "bytes_out", "worker_busy_s", "overlap_s",
         "pipeline_wait_s", "recoveries", "degrades"), 0.0)
    mpi = getattr(model, "mpi", None)
    if mpi is None:
        return out
    out["messages"] = mpi.messages_sent
    out["bytes"] = mpi.bytes_sent
    out["comm_wait_sim_s"] = sum(mpi.comm_seconds) / mpi.nranks
    out["retransmissions"] = mpi.retransmissions
    d = model.engine.describe()
    out["tasks"] = d["tasks_parallel"] + d["tasks_serial"]
    for w in d["per_worker"]:
        out["bytes_in"] += w["bytes_in"]
        out["bytes_out"] += w["bytes_out"]
        out["worker_busy_s"] += w["busy_seconds"]
    out["overlap_s"] = d["pipeline"]["overlap_seconds"]
    out["pipeline_wait_s"] = d["pipeline"]["wait_seconds"]
    out["recoveries"] = sum(d["recovery"].values())
    out["degrades"] = sum(d["degrade_reasons"].values())
    return out


def engine_status(model) -> dict:
    """Pool facts: is it live, why not, how big, which processes."""
    engine = getattr(model, "engine", None)
    if engine is None:
        return {"active": False, "fallback_reason": None, "workers": 0,
                "context_peak_bytes": 0, "worker_pids": []}
    d = engine.describe()
    pids = []
    if engine.supervisor is not None:
        pids = [h.proc.pid for h in engine.supervisor.handles if h is not None]
    return {"active": d["active"], "fallback_reason": d["fallback_reason"],
            "workers": d["workers"],
            "context_peak_bytes": d["context"]["peak_bytes"],
            "worker_pids": pids}


def sim_time(model) -> float | None:
    """Simulated TaihuLight seconds on the slowest rank (SimMPI clock)."""
    return model.max_rank_time() if hasattr(model, "max_rank_time") else None


def global_state(model):
    return model.gather_state() if hasattr(model, "gather_state") else model.state


def steps_done(model) -> int:
    return model.step_count


def states_equal(a, b) -> bool:
    """Bitwise equality of two primitive-equation states."""
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("v", "T", "dp3d", "qdp"))


def invariants(spec: dict, mesh, geom, state) -> dict:
    """What the verify phase compares before and after the run."""
    if spec["kind"] == "dist_sw":
        return {"finite": bool(np.isfinite(state.h).all()
                               and np.isfinite(state.v).all()),
                "mass": float(np.sum(mesh.spheremp * state.h))}
    return {"finite": diagnostics.state_is_finite(state),
            "mass": diagnostics.total_mass(state, geom),
            "tracer_mass": diagnostics.total_tracer_mass(state, geom)}


def sw_height_error(mesh, state, reference) -> float:
    """Area-weighted relative l2 error of ``h`` against the reference."""
    w = mesh.spheremp
    return float(np.sqrt(np.sum(w * (state.h - reference.h) ** 2)
                         / np.sum(w * reference.h ** 2)))


def working_set_bytes(model, state) -> int:
    """Prognostic state plus geometry, computed from array sizes."""
    fields = ("h", "v") if hasattr(state, "h") else ("v", "T", "dp3d", "qdp")
    geoms = model.geoms if hasattr(model, "geoms") else [model.geom]
    return (sum(getattr(state, f).nbytes for f in fields)
            + sum(context_nbytes(g) for g in geoms))


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}
