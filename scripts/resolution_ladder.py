"""The resolution ladder: the primitive-equation model from ne4 to the
paper's 100 km configuration, in three layouts, one fresh process per
rung and layout.

    python3 scripts/resolution_ladder.py [--max-ne N] [--steps S]
                                         [--label L] [--tree DIR] [--out FILE]

Rungs are ne4 x 8, ne8 x 16, ne16 x 16 and ne30 x 26 levels, each with 4
tracers, the fused kernels, no physics, one BLAS thread and the
resolution's dynamics time step (a rung pins one BLAS thread itself, so
``--rung`` run directly times what the ladder does).  Each rung runs in
three layouts: ``serial`` (the one-process ``PrimitiveEquationModel``),
``twin`` (``DistributedPrimitiveEquations`` over 4 SimMPI ranks in one
process: one shard) and ``pool`` (the same on a 2-worker pool: a shard
per worker; the twin and the pool step bit for bit alike).  A rung builds the mesh and the model (``setup_s``,
pool start included), runs one warm step (the lazily built operands;
``first_step_s``), then ``--steps`` timed steps, and records the median
seconds per step, microseconds per element-level, the minor page faults
per timed step (``getrusage`` of the driver: fresh pages the step's
temporaries fault in), the driver's peak RSS, on the pool the same two
for its workers (``/proc/<pid>`` of each worker: the largest worker's
``VmHWM`` and the workers' minor faults summed; ``null`` in layouts
without workers), the model's shard count (``blocks``: the serial
model's element blocks, or the rank groups, which stream element blocks
of their own) and the git sha of the tree it imported.

``--tree`` is the checkout whose ``src/`` the rungs import (default:
this one), so one script measures a parent and a change.  The rows are
written under ``--label`` into ``--out`` (default ``BENCH_ladder.json``
at the repository root), keeping what the file holds under other
labels.  ``--max-ne`` drops the rungs above it (CI runs ``--max-ne 8``).
An ne30 x 26 serial rung needs ~0.9 GB and about a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNGS = ((4, 8), (8, 16), (16, 16), (30, 26))
LAYOUTS = ("serial", "twin", "pool")
QSIZE = 4
#: SimMPI ranks of the two distributed layouts, and the pool's workers.
NRANKS, WORKERS = 4, 2
#: The keys of every row; CI checks them.
ROW_KEYS = ("layout", "ne", "nlev", "qsize", "nelem", "blocks", "steps",
            "setup_s", "first_step_s", "s_per_step", "us_per_element_level",
            "minflt_per_step", "peak_rss_mb", "worker_minflt_per_step",
            "worker_peak_rss_mb", "git_sha")


def worker_pids(model) -> list[int]:
    """The pids of a pool model's live workers (none in process)."""
    engine = getattr(model, "engine", None)
    if engine is None or not engine.active:
        return []
    return [h.proc.pid for h in engine.supervisor.handles if h is not None]


def proc_minflt(pid: int) -> int:
    """Minor faults of process ``pid`` so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[7])


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of process ``pid`` in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as f:
        kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kb / 1024


def run_rung(ne: int, nlev: int, steps: int, layout: str) -> dict:
    """Build and step one rung of ``layout`` in this process; its row
    without the sha."""
    import resource
    import statistics
    import time

    import numpy as np

    from repro.config import ModelConfig
    from repro.homme.distributed import DistributedPrimitiveEquations
    from repro.homme.element import ElementGeometry, ElementState
    from repro.homme.timestep import PrimitiveEquationModel
    from repro.mesh.cubed_sphere import CubedSphereMesh

    t0 = time.perf_counter()
    mesh = CubedSphereMesh(ne)
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=QSIZE)
    geom = ElementGeometry(mesh)
    state = ElementState.isothermal_rest(geom, cfg)
    # A 1 K wave-3 temperature perturbation and smooth positive tracers.
    state.T += (np.cos(geom.lat) ** 3 * np.cos(3 * geom.lon))[:, None]
    for q in range(QSIZE):
        state.qdp[:, q] = (10.0 ** -(q + 3) * (1.0 + 0.3 * np.cos(geom.lat))
                           )[:, None] * state.dp3d
    del geom
    if layout == "serial":
        model = PrimitiveEquationModel(cfg, mesh, init=state)
        shards = len(getattr(model, "blocks", [None]))
    else:
        model = DistributedPrimitiveEquations(
            cfg, mesh, state, nranks=NRANKS, dt=cfg.dt_dynamics,
            workers=WORKERS if layout == "pool" else 0)
        shards = len(model.groups)
        if layout == "pool" and not model.engine.active:
            raise SystemExit(f"pool unavailable: {model.engine.fallback_reason}")
    # Every model copies its initial state: keeping it would count a
    # second state in the rung's peak RSS.
    del state
    t1 = time.perf_counter()
    model.step()
    t2 = time.perf_counter()
    per_step = []
    pids = worker_pids(model)
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wflt = sum(map(proc_minflt, pids))
    for _ in range(steps):
        t = time.perf_counter()
        model.step()
        per_step.append(time.perf_counter() - t)
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
    workers = {"worker_minflt_per_step": None, "worker_peak_rss_mb": None}
    if pids:
        workers = {"worker_minflt_per_step": round(
                       (sum(map(proc_minflt, pids)) - wflt) / steps),
                   "worker_peak_rss_mb": round(max(map(proc_peak_rss_mb, pids)), 1)}
    if layout != "serial":
        model.close()
    s = statistics.median(per_step)
    return {"layout": layout, "ne": ne, "nlev": nlev, "qsize": QSIZE,
            "nelem": mesh.nelem, "blocks": shards, "steps": steps,
            "setup_s": round(t1 - t0, 3), "first_step_s": round(t2 - t1, 3),
            "s_per_step": round(s, 4),
            "us_per_element_level": round(1e6 * s / (mesh.nelem * nlev), 2),
            "minflt_per_step": round(minflt / steps),
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            **workers}


def git_sha(tree: Path) -> str:
    """Short sha of ``tree``'s HEAD, ``-dirty`` when its files differ."""
    out = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=7"],
        capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--max-ne", type=int, default=30)
    ap.add_argument("--steps", type=int, default=2,
                    help="timed steps per rung, after the warm one")
    ap.add_argument("--label", default="change")
    ap.add_argument("--tree", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    ap.add_argument("--rung", nargs=3, help=argparse.SUPPRESS)  # ne nlev layout
    args = ap.parse_args()
    one_thread = dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    if args.rung:
        # Before run_rung imports NumPy: BLAS sizes its thread pool on load.
        os.environ.update(one_thread)
        ne, nlev, layout = args.rung
        print(json.dumps(run_rung(int(ne), int(nlev), args.steps, layout)))
        return

    tree = args.tree.resolve()
    env = {**os.environ, **one_thread, "PYTHONPATH": str(tree / "src")}
    sha = git_sha(tree)
    rows = []
    for ne, nlev in RUNGS:
        if ne > args.max_ne:
            continue
        for layout in LAYOUTS:
            out = subprocess.run(
                [sys.executable, __file__, "--rung", str(ne), str(nlev),
                 layout, "--steps", str(args.steps)],
                env=env, capture_output=True, text=True, check=True)
            row = {**json.loads(out.stdout.splitlines()[-1]), "git_sha": sha}
            print(json.dumps(row), flush=True)
            rows.append(row)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["about"] = ("PrimitiveEquationModel (layout serial; rows without a "
                    "layout key are serial) and DistributedPrimitiveEquations "
                    "over 4 ranks in process (twin) or on a 2-worker pool (pool), "
                    "4 tracers, fused kernels, no physics, one BLAS thread, one "
                    "process per rung and layout; s_per_step is the median of "
                    "`steps` steps after one warm step")
    doc.setdefault("rows", {})[args.label] = rows
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
