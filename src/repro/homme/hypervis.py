"""Hyperviscosity kernels: ``hypervis_dp1``, ``hypervis_dp2``,
``biharmonic_dp3d``.

CAM-SE stabilizes the spectral-element discretization with a
fourth-order hyperviscosity, implemented as two Laplacian sweeps with a
DSS between them (the weak biharmonic operator).  Table 1 splits the
cost into the first sweep (``hypervis_dp1``), the second sweep plus the
update (``hypervis_dp2``), and the thickness operator
(``biharmonic_dp3d``).

The coefficient follows the CAM-SE resolution scaling
``nu = nu0 * (ne0 / ne)^hv_scaling`` so runs remain stable across the
paper's resolution sweep, with explicit subcycling
(:func:`hypervis_stable_subcycles`) when dt exceeds the diffusive
stability limit — the models' step recipe applies it
(:func:`repro.homme.timestep.advance_hypervis`).
"""

from __future__ import annotations

import math

import numpy as np

from .. import constants as C
from ..errors import KernelError
from .element import ElementGeometry, ElementState
from . import operators as op

#: CAM-SE reference hyperviscosity at ne30 [m^4/s].
NU0 = 1.0e15
NE0 = 30
HV_SCALING = 3.2


def nu_for_ne(ne: int, nu0: float = NU0) -> float:
    """Resolution-scaled hyperviscosity coefficient."""
    if ne < 2:
        raise KernelError(f"ne must be >= 2, got {ne}")
    return nu0 * (NE0 / ne) ** HV_SCALING


def nu_for_mesh(mesh) -> float:
    """The default coefficient of a model on ``mesh`` (serial and
    distributed alike).

    Hyperviscosity scales with the *physical* grid spacing: on a
    reduced-radius sphere the effective ne is larger by the same factor
    the radius shrank.
    """
    ne_eff = mesh.ne * C.EARTH_RADIUS / mesh.radius
    return nu_for_ne(max(2, int(round(ne_eff))))


def hypervis_dp1(
    state: ElementState,
    geom: ElementGeometry,
    laplace_fn=None,
    vlaplace_fn=None,
) -> tuple[np.ndarray, np.ndarray]:
    """First Laplacian sweep over momentum and temperature (with DSS).

    Returns (lap_v, lap_T), the continuous Laplacians that feed
    :func:`hypervis_dp2`.  ``laplace_fn``/``vlaplace_fn`` are the
    element-local Laplacians of an execution path
    (:func:`repro.backends.functional_exec.homme_execution`); left
    unset they are the reference operators.
    """
    lap = laplace_fn or op.laplace_sphere_wk
    vlap = vlaplace_fn or op.vlaplace_sphere
    lap_v = geom.dss_vector(vlap(state.v, geom))
    lap_T = geom.dss(lap(state.T, geom))
    return lap_v, lap_T


def hypervis_dp2(
    state: ElementState,
    lap_v: np.ndarray,
    lap_T: np.ndarray,
    geom: ElementGeometry,
    dt: float,
    nu: float,
    laplace_fn=None,
    vlaplace_fn=None,
) -> ElementState:
    """Second sweep + update: u -= dt nu lap(lap(u)) for v and T."""
    if dt <= 0 or nu < 0:
        raise KernelError(f"invalid dt={dt} or nu={nu}")
    lap = laplace_fn or op.laplace_sphere_wk
    vlap = vlaplace_fn or op.vlaplace_sphere
    bih_v = geom.dss_vector(vlap(lap_v, geom))
    bih_T = geom.dss(lap(lap_T, geom))
    out = state.copy()
    out.v = state.v - dt * nu * bih_v
    out.T = state.T - dt * nu * bih_T
    return out


def biharmonic_dp3d(
    dp3d: np.ndarray, geom: ElementGeometry, dss=None, laplace_fn=None
) -> np.ndarray:
    """Weak biharmonic operator on layer thickness (Table 1's last kernel).

    Two weak-Laplacian sweeps with a DSS between; the weak form keeps
    the global dp3d integral (total air mass) conserved to roundoff.
    """
    dss = dss or geom.dss
    lap = laplace_fn or op.laplace_sphere_wk
    lap1 = dss(lap(dp3d, geom))
    return dss(lap(lap1, geom))


def hypervis_stable_subcycles(dt: float, nu: float, ne: int, radius: float) -> int:
    """Subcycles needed for explicit biharmonic stability.

    The largest SE eigenvalue scales like (c / dx^2)^2 with dx the
    minimum GLL spacing; explicit Euler needs dt_sub < 2 / (nu lam_max).
    A safety factor absorbs metric distortion near cube corners.
    """
    dx = 2 * math.pi * radius / (4 * ne * (C.NP - 1))
    lam_max = (8.0 / dx**2) ** 2  # conservative spectral bound
    dt_stable = 1.2 / (nu * lam_max)
    return max(1, math.ceil(dt / dt_stable))
