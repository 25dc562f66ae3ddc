"""The step's transient memory: how far above its starting size the
traced heap of the driver process climbs during each step, in units of
the model state's bytes.

    python3 scripts/step_peak.py [--steps S]

Builds the primitive-equation model at ne4 x 8 levels with 4 tracers
(the resolution ladder's smallest rung) in each layout — ``serial``
(``PrimitiveEquationModel``), ``twin`` (``DistributedPrimitiveEquations``
over 4 SimMPI ranks in process) and ``pool`` (the same on 2 workers,
whose own memory is not traced) — steps it ``--steps`` times under
:mod:`tracemalloc` and prints one line per layout: the largest per-step
peak from the second step on, and the smallest.  ``tracemalloc`` counts
every NumPy buffer, so the numbers repeat exactly on one NumPy version.
"""

from __future__ import annotations

import argparse
import tracemalloc

import numpy as np

from repro.config import ModelConfig
from repro.homme.distributed import DistributedPrimitiveEquations
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh.cubed_sphere import CubedSphereMesh

LAYOUTS = ("serial", "twin", "pool")


def state_bytes(model) -> int:
    """Bytes of the model's prognostic state."""
    return sum(a.nbytes for s in model.rank_states() for a in vars(s).values())


def traced_peaks(model, steps: int) -> list[float]:
    """Step ``model`` ``steps`` times; per step, the traced peak above the
    step's starting size, in state bytes."""
    size = state_bytes(model)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    peaks = []
    try:
        for _ in range(steps):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            model.step()
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / size)
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peaks


def build(layout: str, ne: int = 4, nlev: int = 8, qsize: int = 4, seed: int = 0):
    """A model of ``layout`` from a seeded, noisy resting state."""
    mesh = CubedSphereMesh(ne, 4)
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=qsize)
    state = ElementState.isothermal_rest(ElementGeometry(mesh), cfg)
    rng = np.random.default_rng(seed)
    state.v += 1e-5 * rng.standard_normal(state.v.shape)
    state.T += rng.standard_normal(state.T.shape)
    state.qdp[:] = (0.5 + rng.random(state.qdp.shape)) * state.dp3d[:, None]
    if layout == "serial":
        return PrimitiveEquationModel(cfg, mesh, init=state, dt=300.0)
    return DistributedPrimitiveEquations(
        cfg, mesh, state, nranks=4, dt=300.0, workers=2 if layout == "pool" else 0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--steps", type=int, default=20)
    args = ap.parse_args()
    for layout in LAYOUTS:
        model = build(layout)
        try:
            peaks = traced_peaks(model, args.steps)[1:]
        finally:
            getattr(model, "close", lambda: None)()
        print(f"{layout}: traced per-step peak {max(peaks):.2f} state bytes "
              f"(min {min(peaks):.2f}, steps 2..{args.steps}, state "
              f"{state_bytes(model)} bytes)")


if __name__ == "__main__":
    main()
