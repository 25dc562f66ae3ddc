"""Hyperviscosity coefficients and subcycling for the Table-1 kernels
``hypervis_dp1``, ``hypervis_dp2`` and ``biharmonic_dp3d``.

CAM-SE stabilizes the spectral-element discretization with a
fourth-order hyperviscosity, implemented as two Laplacian sweeps with a
DSS between them (the weak biharmonic operator).  Table 1 splits the
cost into the first sweep (``hypervis_dp1``), the second sweep plus the
update (``hypervis_dp2``), and the thickness operator
(``biharmonic_dp3d``).  The step recipe runs all three as one phase,
:func:`repro.homme.timestep.advance_hypervis`: each sweep is one
laplacian task over T, v and dp3d and one DSS of the three
(:func:`repro.homme.timestep.biharmonic`); the weak form keeps the
global dp3d integral (total air mass) conserved to roundoff.

The coefficient follows the CAM-SE resolution scaling
``nu = nu0 * (ne0 / ne)^hv_scaling`` so runs remain stable across the
paper's resolution sweep, with explicit subcycling
(:func:`hypervis_stable_subcycles`) when dt exceeds the diffusive
stability limit.
"""

from __future__ import annotations

import math

from .. import constants as C
from ..errors import KernelError

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
