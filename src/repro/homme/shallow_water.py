"""Shallow-water mode for verifying the spectral-element operators.

The shallow-water equations on the sphere share all the horizontal
machinery of the primitive equations (vector-invariant momentum,
flux-form continuity, DSS, hyperviscosity) without the vertical
dimension, and have analytic steady states.  Williamson et al. (1992)
test case 2 — steady geostrophic solid-body flow — is the standard
correctness check: a correct discretization keeps the height error
small for days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants as C
from ..errors import KernelError
from ..mesh.cubed_sphere import CubedSphereMesh
from ..parallel import dycore
from .element import ElementGeometry, check_dt
from .timestep import _WholeMesh, biharmonic, checked_state
from . import operators as op


@dataclass
class SWState:
    """Shallow-water prognostics: thickness h (E, n, n), wind v (E, n, n, 2)."""

    h: np.ndarray
    v: np.ndarray

    def copy(self) -> "SWState":
        return SWState(self.h.copy(), self.v.copy())


def williamson2_initial(mesh: CubedSphereMesh, u0: float = 2.0 * np.pi * C.EARTH_RADIUS / (12 * 86400)) -> SWState:
    """Steady geostrophic solid-body flow (Williamson case 2).

    u = u0 cos(lat); gh = gh0 - (R Omega u0 + u0^2/2) sin^2(lat).
    This is an exact steady solution, so any drift is discretization
    error.
    """
    gh0 = 2.94e4
    lat = mesh.lat
    u = u0 * np.cos(lat)
    v = np.zeros_like(u)
    gh = gh0 - (C.EARTH_RADIUS * C.EARTH_OMEGA * u0 + 0.5 * u0**2) * np.sin(lat) ** 2
    vc = mesh.spherical_to_contravariant(u, v)
    return SWState(h=gh / C.GRAVITY, v=vc)


def rossby_haurwitz_initial(mesh: CubedSphereMesh) -> SWState:
    """Rossby--Haurwitz wave (Williamson case 6, wavenumber 4).

    A steadily westward-propagating exact solution of the barotropic
    vorticity equation, the classic "does the dycore keep a coherent
    large-scale wave" test.  Standard parameters: omega = K = 7.848e-6
    1/s, h0 = 8000 m, R = 4.
    """
    w = 7.848e-6
    K = 7.848e-6
    h0 = 8000.0
    Rw = 4.0
    a = mesh.radius
    Om = C.EARTH_OMEGA
    lat, lon = mesh.lat, mesh.lon
    cl = np.cos(lat)

    u = a * w * cl + a * K * cl ** (Rw - 1) * (
        Rw * np.sin(lat) ** 2 - cl**2
    ) * np.cos(Rw * lon)
    v = -a * K * Rw * cl ** (Rw - 1) * np.sin(lat) * np.sin(Rw * lon)

    A = w / 2 * (2 * Om + w) * cl**2 + 0.25 * K**2 * cl ** (2 * Rw) * (
        (Rw + 1) * cl**2 + (2 * Rw**2 - Rw - 2) - 2 * Rw**2 * cl ** (-2)
    )
    B = (
        2 * (Om + w) * K / ((Rw + 1) * (Rw + 2)) * cl**Rw
        * ((Rw**2 + 2 * Rw + 2) - (Rw + 1) ** 2 * cl**2)
    )
    Cc = 0.25 * K**2 * cl ** (2 * Rw) * ((Rw + 1) * cl**2 - (Rw + 2))
    gh = C.GRAVITY * h0 + a**2 * (A + B * np.cos(Rw * lon) + Cc * np.cos(2 * Rw * lon))

    vc = mesh.spherical_to_contravariant(u, v)
    return SWState(h=gh / C.GRAVITY, v=vc)


def sw_compute_rhs(
    h: np.ndarray, v: np.ndarray, geom: ElementGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Element-local shallow-water tendencies (dh/dt, dv/dt), no DSS.

    The **batched** reference form: one operator-library call per term
    over the whole element stack, geometric factors from the memoized
    tensor cache.  The production twin is
    :func:`repro.homme.fused.sw_compute_rhs_fused`; ``repro.bench``
    times the two against each other (the ne8 RK-step ratio committed
    in ``BENCH_homme.json``).
    """
    zeta = op.vorticity_sphere(v, geom)
    E = op.kinetic_energy(v, geom) + C.GRAVITY * h
    grad_E = op.gradient_sphere(E, geom)
    kxv = op.k_cross(v, geom)
    abs_vort = (zeta + geom.fcor)[..., None]
    dv = -abs_vort * kxv - grad_E
    dh = -op.divergence_sphere(v * h[..., None], geom)
    return dh, dv


class _SWRecipe:
    """The shallow-water step, for any layout (see :mod:`repro.homme.timestep`)."""

    _levels = False
    _fields = ("h", "v")

    def _sw_init(self, mesh: CubedSphereMesh, state: SWState,
                 dt: float | None, nu: float) -> SWState:
        """Check the initial state against the mesh and set the recipe's
        knobs; ``dt`` defaults to the gravity-wave CFL of ``state``.
        Returns the state in float64 (:func:`~repro.homme.timestep.checked_state`)."""
        n = mesh.np
        if state.h.shape != (mesh.nelem, n, n) or state.v.shape != (mesh.nelem, n, n, 2):
            raise KernelError(
                f"initial state h{state.h.shape}, v{state.v.shape}; the mesh "
                f"needs h{(mesh.nelem, n, n)}, v{(mesh.nelem, n, n, 2)}")
        state = checked_state(state, self._fields)
        if not (np.isfinite(nu) and nu >= 0):
            raise KernelError(f"hyperviscosity nu must be finite and >= 0, got {nu!r}")
        if dt is None:
            c = float(np.sqrt(C.GRAVITY * state.h.max()))
            dx = 2 * np.pi * mesh.radius / (4 * mesh.ne * (mesh.np - 1))
            dt = 0.25 * dx / c
        self.dt = check_dt(dt)
        self.nu = nu
        return state

    def _rk_stage(self, bases: list[SWState], points: list[SWState], dt: float,
                  stage: int) -> list[SWState]:
        t0s = self._clocks()
        hvs = self._fanout_dss(
            dycore.sw_stage_task, {"dt": dt},
            [(b.h, b.v, p.h, p.v) for b, p in zip(bases, points)], stage,
            slot=0, nout=2)
        self._rank_spans("rk_stage", t0s, stage=stage, step=self.step_count)
        return [SWState(h=h, v=v) for h, v in hvs]

    def step(self) -> None:
        """One RK3 step (the primitive-equation scheme), then, when
        ``nu > 0``, one weak biharmonic of (h, v) — exactly
        mass-conserving under DSS."""
        t0s = self._clocks()
        dt = self.dt
        s0 = self.states
        s1 = self._rk_stage(s0, s0, dt / 3.0, stage=1)
        s2 = self._rk_stage(s0, s1, dt / 2.0, stage=2)
        s3 = self._rk_stage(s0, s2, dt, stage=3)
        if self.nu > 0:
            fields = [(s.h, s.v) for s in s3]
            s3 = [SWState(h=h, v=v) for h, v in biharmonic(
                self, dycore.sw_laplace_task, fields, 0, {"c": dt * self.nu},
                dycore.hypervis_post, fields,
                [tuple(a.shape for a in f) for f in fields])]
        self.states = s3
        self.t += dt
        self._rank_spans("step", t0s, step=self.step_count)
        self.step_count += 1


class ShallowWaterModel(_SWRecipe, _WholeMesh):
    """SE shallow-water solver on the whole mesh (RK3, optional
    hyperviscosity): the shallow-water recipe at one shard; the N-shard
    form is :class:`repro.homme.distributed.DistributedShallowWater`.

    ``exec_path`` names the element-local kernel set (RHS and the
    hyperviscosity Laplacians): ``"fused"`` (default, single-pass
    contractions) or ``"batched"`` (the operator-library reference) —
    see :func:`repro.backends.functional_exec.homme_execution`.
    """

    def __init__(
        self,
        mesh: CubedSphereMesh,
        state: SWState | None = None,
        dt: float | None = None,
        nu: float = 0.0,
        exec_path: str = "fused",
    ) -> None:
        # Owned, not the caller's: restore writes in place.
        state = williamson2_initial(mesh) if state is None else state.copy()
        state = self._sw_init(mesh, state, dt, nu)
        super().__init__(mesh, None, exec_path)
        self.state = state
        self._split_blocks()

    def run_hours(self, hours: float) -> None:
        """Advance the given number of simulated hours."""
        self._run_for(hours, "hours", 3600.0)

    def height_l2_error(self, reference: SWState) -> float:
        """Normalized L2 height error against a reference state."""
        w = self.mesh.spheremp
        num = np.sum(w * (self.state.h - reference.h) ** 2)
        den = np.sum(w * reference.h**2)
        return float(np.sqrt(num / den))

    def total_mass(self) -> float:
        """Integral of h (conserved by the flux-form continuity + DSS)."""
        return float(np.sum(self.mesh.spheremp * self.state.h))
