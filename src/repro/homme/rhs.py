"""The primitive-equation right-hand side of ``compute_and_apply_rhs``.

Table 1's most data-dependent kernel: "compute the RHS (right hand
side), accumulate into velocity and apply DSS".  This module is its
element-local half; the accumulate and the DSS are the step recipe's
RK phase, :func:`repro.homme.timestep.compute_and_apply_rhs`.  The
equations are the hydrostatic primitive equations on floating
Lagrangian layers (the CAM-SE formulation: no vertical advection terms
inside the RK stage; layers float and :mod:`~repro.homme.remap`
restores them):

.. math::

    \\partial_t v &= -(\\zeta + f)\\,\\hat{k}\\times v
                    - \\nabla(E + \\Phi) - \\frac{R T}{p} \\nabla p \\\\
    \\partial_t T &= -v\\cdot\\nabla T + \\frac{\\kappa T \\omega}{p} \\\\
    \\partial_t \\Delta p &= -\\nabla\\cdot(v\\, \\Delta p)

The two **vertical scans** in this kernel — midlevel pressure from
layer thicknesses and the hydrostatic geopotential integral — are the
exact operations the paper parallelizes with register communication
(Section 7.4, Figure 2): sequential along the column, embarrassingly
parallel across it.
"""

from __future__ import annotations

import numpy as np

from .. import constants as C
from .element import ElementGeometry, ElementState
from . import operators as op

#: Pressure at the model top [Pa] (CAM uses ~2.19 hPa; we keep a small
#: nonzero lid so log/ratio terms are well defined).
PTOP = 219.0


def compute_pressure(dp3d: np.ndarray, ptop: float = PTOP) -> tuple[np.ndarray, np.ndarray]:
    """Midlevel and interface pressures from layer thicknesses.

    Returns ``(p_mid, p_int)``: p_mid has the layer shape (E, L, n, n),
    p_int has (E, L+1, n, n) with p_int[:, 0] = ptop.  This is the
    column scan of the paper's Figure 2: p_k = p_{k-1} + a_k.
    """
    csum = np.cumsum(dp3d, axis=1)
    E, L = dp3d.shape[0], dp3d.shape[1]
    p_int = np.concatenate(
        [np.full((E, 1) + dp3d.shape[2:], ptop), ptop + csum], axis=1
    )
    p_mid = ptop + csum - 0.5 * dp3d
    return p_mid, p_int


def compute_geopotential(
    T: np.ndarray,
    p_mid: np.ndarray,
    dp3d: np.ndarray,
    phis: np.ndarray | None = None,
) -> np.ndarray:
    """Hydrostatic midlevel geopotential (bottom-up column scan).

    Phi_k = Phi_s + R sum_{l>k} T_l dp_l / p_l + R T_k dp_k / (2 p_k).
    """
    rt = C.R_DRY * T * dp3d / p_mid
    # Reverse cumulative sum below level k (exclusive).
    below = np.flip(np.cumsum(np.flip(rt, axis=1), axis=1), axis=1) - rt
    phi = below + 0.5 * rt
    if phis is not None:
        phi = phi + phis[:, None]
    return phi


def compute_omega_p(
    v: np.ndarray,
    p_mid: np.ndarray,
    dp3d: np.ndarray,
    geom: ElementGeometry,
    tensors=None,
) -> np.ndarray:
    """omega/p = (Dp/Dt)/p at midlevels (for the adiabatic heating term).

    omega_k = v_k . grad(p_k) - [ sum_{l<k} div(v dp)_l + 0.5 div(v dp)_k ].
    """
    grad_p = op.gradient_cov(p_mid, geom, tensors)
    # v . grad p uses contravariant v against covariant gradient.
    vgradp = v[..., 0] * grad_p[..., 0] + v[..., 1] * grad_p[..., 1]
    vdp = v * dp3d[..., None]
    divdp = op.divergence_sphere(vdp, geom, tensors)
    above = np.cumsum(divdp, axis=1) - divdp
    omega = vgradp - (above + 0.5 * divdp)
    return omega / p_mid


def compute_rhs(
    state: ElementState,
    geom: ElementGeometry,
    phis: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element-local tendencies (dv/dt, dT/dt, d(dp3d)/dt), no DSS.

    The compute half of an RK stage, apart from its boundary exchange
    (:func:`repro.homme.timestep.compute_and_apply_rhs` adds the
    increment and the DSS).  This is the **batched** reference form — one
    operator-library call per term on the full (E, L, np, np) stack,
    with the geometric factors fetched once from the memoized tensor
    cache.  The production twin is
    :func:`repro.homme.fused.compute_rhs_fused`.
    """
    state.check_consistent()
    v, T, dp3d = state.v, state.T, state.dp3d
    t = geom.tensors

    p_mid, _ = compute_pressure(dp3d)
    phi = compute_geopotential(T, p_mid, dp3d, phis)
    E = op.kinetic_energy(v, geom, t)
    zeta = op.vorticity_sphere(v, geom, t)
    grad_Ephi = op.gradient_sphere(E + phi, geom, t)
    grad_p = op.gradient_sphere(p_mid, geom, t)
    kxv = op.k_cross(v, geom, t)

    fcor = geom.fcor[:, None]
    abs_vort = (zeta + fcor)[..., None]
    rt_over_p = (C.R_DRY * T / p_mid)[..., None]
    dv = -abs_vort * kxv - grad_Ephi - rt_over_p * grad_p

    # Temperature: horizontal advection + adiabatic heating.
    grad_T_cov = op.gradient_cov(T, geom, t)
    v_dot_gradT = v[..., 0] * grad_T_cov[..., 0] + v[..., 1] * grad_T_cov[..., 1]
    omega_p = compute_omega_p(v, p_mid, dp3d, geom, t)
    dT = -v_dot_gradT + C.KAPPA * T * omega_p

    # Layer continuity.
    vdp = v * dp3d[..., None]
    ddp = -op.divergence_sphere(vdp, geom, t)

    return dv, dT, ddp

