"""The resolution ladder: the serial primitive-equation model from ne4 to
the paper's 100 km configuration, one fresh process per rung.

    python3 scripts/resolution_ladder.py [--max-ne N] [--steps S]
                                         [--label L] [--tree DIR] [--out FILE]

Rungs are ne4 x 8, ne8 x 16, ne16 x 16 and ne30 x 26 levels, each with 4
tracers, the fused kernels, no physics and one BLAS thread.  A rung
builds the mesh and the model (``setup_s``), runs one warm step (the
lazily built operands; ``first_step_s``), then ``--steps`` timed steps,
and records the median seconds per step, microseconds per element-level,
the minor page faults per timed step (``getrusage``: fresh pages the
step's temporaries fault in), the process's peak RSS, the model's
element-block count and the git sha of the tree it imported.

``--tree`` is the checkout whose ``src/`` the rungs import (default:
this one), so one script measures a parent and a change.  The rows are
written under ``--label`` into ``--out`` (default ``BENCH_ladder.json``
at the repository root), keeping what the file holds under other
labels.  ``--max-ne`` drops the rungs above it (CI runs ``--max-ne 8``).
An ne30 x 26 rung needs ~1.2 GB and about a minute.
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
QSIZE = 4
#: The keys of every row; CI checks them.
ROW_KEYS = ("ne", "nlev", "qsize", "nelem", "blocks", "steps", "setup_s",
            "first_step_s", "s_per_step", "us_per_element_level",
            "minflt_per_step", "peak_rss_mb", "git_sha")


def run_rung(ne: int, nlev: int, steps: int) -> dict:
    """Build and step one rung in this process; its row without the sha."""
    import resource
    import statistics
    import time

    import numpy as np

    from repro.config import ModelConfig
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
    model = PrimitiveEquationModel(cfg, mesh, init=state)
    t1 = time.perf_counter()
    model.step()
    t2 = time.perf_counter()
    per_step = []
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        t = time.perf_counter()
        model.step()
        per_step.append(time.perf_counter() - t)
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
    s = statistics.median(per_step)
    return {"ne": ne, "nlev": nlev, "qsize": QSIZE, "nelem": mesh.nelem,
            "blocks": len(getattr(model, "blocks", [None])), "steps": steps,
            "setup_s": round(t1 - t0, 3), "first_step_s": round(t2 - t1, 3),
            "s_per_step": round(s, 4),
            "us_per_element_level": round(1e6 * s / (mesh.nelem * nlev), 2),
            "minflt_per_step": round(minflt / steps),
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


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
    ap.add_argument("--rung", nargs=2, type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rung:
        print(json.dumps(run_rung(*args.rung, args.steps)))
        return

    tree = args.tree.resolve()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    sha = git_sha(tree)
    rows = []
    for ne, nlev in RUNGS:
        if ne > args.max_ne:
            continue
        out = subprocess.run(
            [sys.executable, __file__, "--rung", str(ne), str(nlev),
             "--steps", str(args.steps)],
            env=env, capture_output=True, text=True, check=True)
        row = {**json.loads(out.stdout.splitlines()[-1]), "git_sha": sha}
        print(json.dumps(row), flush=True)
        rows.append(row)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["about"] = ("serial PrimitiveEquationModel, 4 tracers, fused kernels, "
                    "no physics, one BLAS thread, one process per rung; "
                    "s_per_step is the median of `steps` steps after one warm step")
    doc.setdefault("rows", {})[args.label] = rows
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
