"""The Katrina twin experiment: coarse vs fine resolution (Figure 9).

The paper's finding is resolution sensitivity: the ne30 (100 km) run
"failed to simulate hurricane Katrina" while ne120 (25 km) captured
structure, track, and intensity.  We reproduce it on a reduced-radius
("small Earth") sphere — the DCMIP device that scales grid spacing and
timestep together by a factor X so a laptop mesh reaches TC-resolving
effective resolution with identical dynamics:

- the **coarse** member's effective spacing stays above the ~50 km
  threshold the TC literature gives for resolving intensification
  (Figure 9a: no storm);
- the **fine** member drops well below it (Figure 9b-d: storm).

Both members start from the same analytic Katrina-genesis vortex in a
tropical environment with an easterly-then-poleward steering flow, run
the full dycore + RJ simple physics, and are tracked; the experiment
reports intensification, track, and the coarse/fine contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants as C
from ..config import ModelConfig
from ..homme.element import ElementGeometry, ElementState
from ..homme.timestep import PrimitiveEquationModel
from ..mesh.cubed_sphere import CubedSphereMesh
from ..physics.simple_physics import SimplePhysics
from .track import VortexTracker
from .vortex import VortexParameters, plant_vortex


@dataclass
class MemberResult:
    """Outcome of one resolution member."""

    label: str
    effective_resolution_km: float
    tracker: VortexTracker
    initial_msw: float
    peak_msw: float
    late_msw: float
    final_min_ps: float

    @property
    def retention(self) -> float:
        """Late-window wind relative to the initial wind (1 = kept)."""
        return self.late_msw / max(self.initial_msw, 1e-9)

    @property
    def retained(self) -> bool:
        """Did the member keep a coherent storm (late wind near initial)?

        The paper's Figure 9a/9b contrast: the coarse grid cannot
        propagate the cyclone it was handed — the vortex decays — while
        the fine grid maintains the warm-core storm.
        """
        return self.retention >= 0.7


class KatrinaExperiment:
    """Coarse-vs-fine twin runs of the Katrina vortex.

    Parameters
    ----------
    coarse_ne / fine_ne:
        Mesh resolutions of the two members.
    small_earth_factor:
        Radius reduction X; effective resolution = nominal / X.
    nlev:
        Vertical levels (kept modest for laptop runtimes).
    hours:
        Simulated hours per member.
    """

    def __init__(
        self,
        coarse_ne: int = 4,
        fine_ne: int = 12,
        small_earth_factor: float = 10.0,
        nlev: int = 10,
        hours: float = 24.0,
        seed_params: VortexParameters | None = None,
        steering_u: float = -4.0,
    ) -> None:
        self.coarse_ne = coarse_ne
        self.fine_ne = fine_ne
        self.x = small_earth_factor
        self.nlev = nlev
        self.hours = hours
        self.params = seed_params or VortexParameters()
        #: Environmental steering flow [m/s]: the easterly trades that
        #: carried Katrina west across the Gulf (Figure 9c); poleward
        #: motion comes from the vortex's own beta drift.
        self.steering_u = steering_u

    def _build_member(self, ne: int) -> tuple[PrimitiveEquationModel, VortexTracker]:
        cfg = ModelConfig(ne=ne, nlev=self.nlev, qsize=1)
        mesh = CubedSphereMesh(ne, radius=C.EARTH_RADIUS / self.x)
        geom = ElementGeometry(mesh)
        state = ElementState.isothermal_rest(geom, cfg, T0=300.0)
        # Tropical stratification: warm below, cooler aloft.
        sigma = (np.arange(self.nlev) + 0.5) / self.nlev
        state.T[:] = 300.0 - 55.0 * (1.0 - sigma)[None, :, None, None]
        # Environmental steering: a solid-body zonal flow u = U cos(lat)
        # WITH its balancing surface-pressure tilt (the exact steady
        # state of the PE system for isothermal T; near-balanced for the
        # stratified profile).  An unbalanced background flow under the
        # X-scaled Coriolis sheds inertia-gravity waves that swamp the
        # vortex.
        U = self.steering_u
        if U != 0.0:
            taper = np.cos(geom.lat)
            vc_env = mesh.spherical_to_contravariant(
                U * taper, np.zeros_like(taper)
            )
            state.v += vc_env[:, None]
            T_mean = float(state.T.mean())
            omega = mesh.omega
            tilt = np.exp(
                -(mesh.radius * omega * U + 0.5 * U**2)
                * np.sin(geom.lat) ** 2
                / (C.R_DRY * T_mean)
            )
            state.dp3d *= tilt[:, None]
        state = plant_vortex(state, geom, self.params)
        # DARE (diabatic acceleration and rescaling): on the X-times
        # smaller, X-times faster-rotating planet, diabatic processes
        # run X times faster so the moist feedback keeps pace with the
        # accelerated dynamics; momentum drag stays physical.
        physics = SimplePhysics(sst=302.15, thermo_acceleration=self.x)
        # Gravity-wave CFL on the reduced sphere: dt = 0.4 dx / c with
        # c ~ 340 m/s the fastest internal wave.
        dx = 2 * np.pi * mesh.radius / (4 * ne * (C.NP - 1))
        dt = 0.4 * dx / 340.0
        model = PrimitiveEquationModel(
            cfg, mesh=mesh, init=state, forcing=physics, dt=dt
        )
        # Radii follow the storm size (the planet is reduced, the storm
        # parameters are physical): search within ~8 rm, measure MSW
        # within ~4 rm of the fix.
        tracker = VortexTracker(
            geom,
            self.params.center_lat_deg,
            self.params.center_lon_deg,
            search_radius_m=8.0 * self.params.rm,
            storm_radius_m=4.0 * self.params.rm,
        )
        return model, tracker

    def run_member(self, ne: int, label: str) -> MemberResult:
        """Run one member, tracking every simulated hour."""
        model, tracker = self._build_member(ne)
        first = tracker.fix(model.state, 0.0)
        steps_per_hour = max(1, int(round(3600.0 / model.dt)))
        n_hours = int(self.hours)
        for h in range(1, n_hours + 1):
            model.run_steps(steps_per_hour)
            tracker.fix(model.state, float(h))
        msw = tracker.msw_series()
        late = msw[-max(1, len(msw) // 3):]
        return MemberResult(
            label=label,
            effective_resolution_km=C.ne_resolution_km(ne) / self.x,
            tracker=tracker,
            initial_msw=float(first.msw_ms),
            peak_msw=float(msw.max()),
            late_msw=float(late.mean()),
            final_min_ps=float(tracker.min_ps_series().min()),
        )

    def run(self) -> dict[str, MemberResult]:
        """Run both members; returns {'coarse': ..., 'fine': ...}."""
        return {
            "coarse": self.run_member(self.coarse_ne, "coarse (ne30-class)"),
            "fine": self.run_member(self.fine_ne, "fine (ne120-class)"),
        }

