"""``prim_run``: the full CAM-SE dynamics timestep.

One dynamics step is (CAM-SE structure, paper Section 6):

1. RK dynamics — N stages of :func:`compute_and_apply_rhs` (we use the
   3-stage second-order Runge--Kutta HOMME describes as "a combination
   of the RK2 and Leapfrog schemes");
2. tracer advection — :func:`euler_step` subcycled 3x;
3. hyperviscosity — :func:`advance_hypervis`;
4. every ``rsplit`` steps, :func:`vertical_remap` back to reference
   levels.

:class:`PrimitiveEquationModel` is the serial (whole-mesh) driver used
by the numerics tests, the physics experiments, and the Katrina runs;
the distributed form is
:class:`repro.homme.distributed.DistributedPrimitiveEquations`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import constants as C
from ..config import ModelConfig
from ..errors import KernelError
from ..mesh.cubed_sphere import CubedSphereMesh
from ..obs.tracer import NULL_TRACER
from .element import ElementGeometry, ElementState, check_dt
from .euler import euler_step_subcycled
from .hypervis import advance_hypervis, nu_for_mesh
from .remap import vertical_remap
from .rhs import compute_and_apply_rhs
from . import diagnostics

#: Dynamics steps between vertical remaps (CAM-SE rsplit).
RSPLIT = 3

#: Forcing signature: f(state, geom, t, dt) -> None (modifies state in place).
ForcingFn = Callable[[ElementState, ElementGeometry, float, float], None]


class PrimitiveEquationModel:
    """Serial primitive-equation dynamical core on the cubed sphere.

    Parameters
    ----------
    cfg:
        Model configuration (ne, nlev, qsize, timestep).
    mesh:
        Optional pre-built mesh (shared across experiments).
    init:
        Initial condition: "isothermal" rest state, or a ready
        :class:`ElementState`.
    forcing:
        Optional physics callback applied after each dynamics step.
    dt:
        Override the CFL-derived dynamics timestep.
    tracer:
        Observability tracer (:mod:`repro.obs`).  The serial model has
        no simulated hardware clock, so its spans live on the *model
        time* axis: each step spans ``[t, t + dt]`` on the "serial"
        track, with schematic sub-spans for the RK stages, tracer
        advection, hyperviscosity, and remap phases.
    exec_path:
        Element-local kernel set: ``"fused"`` (default — single-pass
        contractions against preassembled per-mesh operands) or
        ``"batched"`` (the reference kernels built from the operator
        library, which the fused ones are checked against).  See
        :func:`repro.backends.functional_exec.homme_execution`.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        mesh: CubedSphereMesh | None = None,
        init: str | ElementState = "isothermal",
        forcing: ForcingFn | None = None,
        dt: float | None = None,
        hypervis: bool = True,
        nu: float | None = None,
        phis: np.ndarray | None = None,
        tracer=None,
        exec_path: str = "fused",
    ) -> None:
        self.cfg = cfg
        self.mesh = mesh if mesh is not None else CubedSphereMesh(cfg.ne, cfg.np)
        if self.mesh.ne != cfg.ne:
            raise KernelError("mesh resolution disagrees with configuration")
        self.geom = ElementGeometry(self.mesh)
        if isinstance(init, ElementState):
            self.state = init
        elif init == "isothermal":
            self.state = ElementState.isothermal_rest(self.geom, cfg)
        else:
            raise KernelError(f"unknown initial condition {init!r}")
        self.state.check_consistent()
        self.forcing = forcing
        self.dt = check_dt(dt if dt is not None else cfg.dt_dynamics)
        self.hypervis = hypervis
        self.nu = nu_for_mesh(self.mesh) if nu is None else nu
        self.phis = phis
        self.t = 0.0
        self.step_count = 0
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Imported lazily: backends.functional_exec imports repro.homme.
        from ..backends.functional_exec import homme_execution

        self.exec = homme_execution(exec_path)

    # -- one dynamics step ------------------------------------------------------

    def step(self) -> None:
        """Advance one dynamics timestep (RK3 + tracers + hypervis + remap)."""
        s0 = self.state
        dt = self.dt
        geom = self.geom
        ex = self.exec
        # 3-stage 2nd-order RK (HOMME's RK + leapfrog combination):
        # u1 = u0 + dt/3 f(u0); u2 = u0 + dt/2 f(u1); u = u0 + dt f(u2).
        s1 = compute_and_apply_rhs(s0, s0, geom, dt / 3.0, self.phis, ex.compute_rhs)
        s2 = compute_and_apply_rhs(s1, s0, geom, dt / 2.0, self.phis, ex.compute_rhs)
        s3 = compute_and_apply_rhs(s2, s0, geom, dt, self.phis, ex.compute_rhs)

        # Tracer advection on the updated winds (3 subcycles).
        s3.qdp = euler_step_subcycled(
            s3, geom, dt, subcycles=self.cfg.tracer_subcycles,
            path=ex.name,
        )

        if self.hypervis:
            s3 = advance_hypervis(
                s3, geom, dt, self.cfg.ne, nu=self.nu,
                laplace_fn=ex.laplace_wk, vlaplace_fn=ex.vlaplace,
            )

        self.step_count += 1
        remapped = self.step_count % RSPLIT == 0
        if remapped:
            s3 = vertical_remap(s3)

        if self.tracer.enabled:
            self._trace_step(self.t, dt, remapped)
        self.t += dt
        if self.forcing is not None:
            self.forcing(s3, geom, self.t, dt)
        self.state = s3

    def _trace_step(self, t: float, dt: float, remapped: bool) -> None:
        """Schematic model-time spans for one serial step.

        The serial driver charges no simulated hardware clock, so phase
        sub-spans partition ``[t, t + dt]`` at fixed fractions — enough
        to see the step structure (and remap cadence) on a timeline.
        """
        tr = self.tracer
        tr.span_at("serial", "step", t, t + dt, cat="model",
                   step=self.step_count - 1)
        tr.span_at("serial", "compute_and_apply_rhs", t, t + 0.45 * dt,
                   cat="model")
        tr.span_at("serial", "euler_step", t + 0.45 * dt, t + 0.7 * dt,
                   cat="model")
        if self.hypervis:
            tr.span_at("serial", "hypervis", t + 0.7 * dt, t + 0.9 * dt,
                       cat="model")
        if remapped:
            tr.span_at("serial", "vertical_remap", t + 0.9 * dt, t + dt,
                       cat="model")

    def run_steps(self, n: int) -> None:
        """Advance ``n`` dynamics steps."""
        for _ in range(n):
            self.step()

    def run_days(self, days: float) -> None:
        """Advance the given number of simulated days."""
        n = int(round(days * C.SECONDS_PER_DAY / self.dt))
        self.run_steps(n)

    # -- diagnostics --------------------------------------------------------------

    def diagnostics(self) -> dict[str, float]:
        """Mass/energy/wind/ps diagnostics of the current state."""
        ps_min, ps_max = diagnostics.surface_pressure_range(self.state)
        return {
            "t_days": self.t / C.SECONDS_PER_DAY,
            "mass": diagnostics.total_mass(self.state, self.geom),
            "energy": diagnostics.total_energy(self.state, self.geom),
            "max_wind": diagnostics.max_wind(self.state, self.geom),
            "ps_min": ps_min,
            "ps_max": ps_max,
            "courant": diagnostics.courant_number(
                self.state, self.geom, self.dt, self.cfg.ne
            ),
            "finite": float(diagnostics.state_is_finite(self.state)),
        }
