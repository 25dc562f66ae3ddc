"""The physics driver: sequences column processes each physics step.

CAM alternates dynamics and physics phases (paper Section 6).
:class:`PhysicsSuite` is the physics phase: a configurable sequence of
column processes applied to the state, usable directly as the
``forcing`` callback of either primitive-equation model — the step
recipe (:mod:`repro.homme.timestep`) calls it once per shard, on that
shard's state and geometry.  Being purely column-local it needs no halo
communication and keeps no whole-mesh total, so its result does not
depend on how the mesh is sharded — the structural property that makes
the physics phase embarrassingly parallel on the CPE clusters (and why
the paper's physics refactoring is tool-driven while the dycore needed
manual redesign).
"""

from __future__ import annotations

import numpy as np

from .. import constants as C
from ..errors import ConfigurationError
from ..homme.element import ElementGeometry, ElementState
from ..homme.rhs import PTOP, compute_pressure
from .held_suarez import held_suarez_forcing
from .kessler import kessler_step
from .radiation import radiative_heating, surface_temperature
from .simple_physics import SimplePhysics

#: Processes selectable in a suite.
AVAILABLE = ("held_suarez", "kessler", "radiation", "simple_physics")


class PhysicsSuite:
    """A configurable CAM-style physics package.

    Parameters
    ----------
    processes:
        Ordered process names from :data:`AVAILABLE`.
    qv_index, qc_index, qr_index:
        Tracer slots for the water species (Kessler needs all three).
    """

    def __init__(
        self,
        processes: tuple[str, ...] = ("held_suarez",),
        qv_index: int = 0,
        qc_index: int = 1,
        qr_index: int = 2,
    ) -> None:
        for p in processes:
            if p not in AVAILABLE:
                raise ConfigurationError(f"unknown physics process {p!r}")
        self.processes = tuple(processes)
        self.qv_index = qv_index
        self.qc_index = qc_index
        self.qr_index = qr_index
        self._simple = SimplePhysics(qv_index=qv_index)

    def __call__(
        self, state: ElementState, geom: ElementGeometry, t: float, dt: float
    ) -> None:
        """Apply all configured processes in order (in place)."""
        for p in self.processes:
            getattr(self, f"_apply_{p}")(state, geom, t, dt)

    # -- individual processes ----------------------------------------------------

    def _apply_held_suarez(self, state, geom, t, dt) -> None:
        held_suarez_forcing(state, geom, t, dt)

    def _apply_simple_physics(self, state, geom, t, dt) -> None:
        self._simple(state, geom, t, dt)

    def _apply_kessler(self, state, geom, t, dt) -> None:
        if state.qsize <= max(self.qv_index, self.qc_index, self.qr_index):
            raise ConfigurationError(
                "Kessler needs qv/qc/qr tracer slots; increase qsize"
            )
        p_mid, _ = compute_pressure(state.dp3d)
        dp = state.dp3d
        qv = state.qdp[:, self.qv_index] / dp
        qc = state.qdp[:, self.qc_index] / dp
        qr = state.qdp[:, self.qr_index] / dp
        T, qv, qc, qr, _ = kessler_step(state.T, qv, qc, qr, p_mid, dt)
        state.T[:] = T
        state.qdp[:, self.qv_index] = qv * dp
        state.qdp[:, self.qc_index] = qc * dp
        state.qdp[:, self.qr_index] = qr * dp

    def _apply_radiation(self, state, geom, t, dt) -> None:
        p_mid, _ = compute_pressure(state.dp3d)
        ps = state.ps(PTOP)
        Ts = surface_temperature(geom.lat)
        heating = radiative_heating(
            state.T, p_mid, state.dp3d, ps, Ts, geom.lat
        )
        # Clip the rate so coarse vertical grids cannot produce runaway
        # cooling in one step.
        heating = np.clip(heating, -20.0 / C.SECONDS_PER_DAY, 20.0 / C.SECONDS_PER_DAY)
        state.T[:] = state.T + dt * heating

    # -- cost model hooks -----------------------------------------------------------

    def flops_per_column_level(self) -> float:
        """Approximate DP flops per (column, level) for the configured
        suite — used by the whole-CAM performance model (Figure 6)."""
        per_process = {
            "held_suarez": 25.0,
            "kessler": 120.0,
            "radiation": 180.0,
            "simple_physics": 80.0,
        }
        return sum(per_process[p] for p in self.processes)
