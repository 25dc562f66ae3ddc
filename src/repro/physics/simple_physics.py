"""Reed--Jablonowski (2012) simplified moist physics.

The standard idealized-tropical-cyclone physics package for CAM-SE:

1. **Large-scale condensation** — supersaturated vapour condenses
   immediately, releasing latent heat; condensate rains out instantly.
2. **Surface fluxes** — bulk aerodynamic momentum drag plus sensible
   and latent heat fluxes from a fixed-SST ocean, with the
   wind-speed-dependent exchange coefficients of RJ2012.
3. **Boundary-layer diffusion** — implicit vertical diffusion of
   momentum, temperature, and moisture below ~850 hPa.

This is the physics that turns the analytic vortex of
:mod:`repro.katrina.vortex` into an intensifying hurricane at high
resolution — the mechanism behind the paper's Figure 9.
"""

from __future__ import annotations

import numpy as np

from .. import constants as C
from ..homme.element import ElementGeometry, ElementState
from ..homme.rhs import PTOP, compute_pressure
from .kessler import saturation_mixing_ratio
from .pbl import drag_coefficient, CE


def large_scale_condensation(
    T: np.ndarray, qv: np.ndarray, p: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Remove supersaturation; returns (T_new, qv_new, precip_rate).

    Single linearized saturation-adjustment step (RJ2012 eq. 16-18);
    condensate is removed immediately (no cloud stage).
    """
    lv_cp = C.LATENT_HEAT_VAP / C.CP_DRY
    qvs = saturation_mixing_ratio(T, p)
    dqsdT = qvs * 17.27 * (273.15 - 35.85) / (T - 35.85) ** 2
    cond = np.clip((qv - qvs) / (1.0 + lv_cp * dqsdT), 0.0, None)
    return T + lv_cp * cond, qv - cond, cond / max(dt, 1e-12)


class SimplePhysics:
    """RJ2012 physics as a forcing callback for the dynamical core.

    Parameters
    ----------
    sst:
        Fixed sea-surface temperature [K] (302.15 K in RJ2012).
    qv_index:
        Which tracer slot carries water vapour.
    thermo_acceleration:
        DARE factor for the *diabatic* processes (condensation heating,
        surface enthalpy/moisture fluxes) on reduced-radius spheres.
        Momentum drag and mechanical mixing are not diabatic and keep
        the physical timestep.
    """

    def __init__(
        self,
        sst: float = 302.15,
        qv_index: int = 0,
        thermo_acceleration: float = 1.0,
    ) -> None:
        self.sst = sst
        self.qv_index = qv_index
        self.thermo_acceleration = thermo_acceleration

    def __call__(
        self, state: ElementState, geom: ElementGeometry, t: float, dt: float
    ) -> None:
        iq = self.qv_index
        dt_thermo = dt * self.thermo_acceleration
        p_mid, _ = compute_pressure(state.dp3d)
        dp = state.dp3d
        qv = state.qdp[:, iq] / dp

        # 1. Large-scale condensation through the whole column.
        T_new, qv, _ = large_scale_condensation(state.T, qv, p_mid, dt_thermo)
        state.T[:] = T_new

        # 2. Surface fluxes on the lowest level (index -1 = surface).
        from ..homme import operators as op

        speed = np.sqrt(2.0 * op.kinetic_energy(state.v[:, -1], geom))
        rho_low = p_mid[:, -1] / (C.R_DRY * state.T[:, -1])
        rate_fac = C.GRAVITY * rho_low / dp[:, -1]
        cd = drag_coefficient(speed)
        k_m = cd * speed * rate_fac
        k_e = CE * speed * rate_fac

        ps = state.ps(PTOP)
        qsat_surf = saturation_mixing_ratio(
            np.full_like(ps, self.sst), ps
        )
        state.T[:, -1] = (state.T[:, -1] + dt_thermo * k_e * self.sst) / (
            1.0 + dt_thermo * k_e
        )
        qv[:, -1] = (qv[:, -1] + dt_thermo * k_e * qsat_surf) / (1.0 + dt_thermo * k_e)
        state.v[:, -1] /= (1.0 + dt * k_m)[..., None]

        # 3. Boundary-layer diffusion below ~850 hPa (simple implicit
        # two-level mixing: each PBL level relaxes toward its neighbour
        # above with the RJ K-profile timescale).
        pbl = p_mid > 85000.0
        k_mix = np.where(pbl, k_e[:, None] * 0.5, 0.0)
        for k in range(state.T.shape[1] - 1, 0, -1):
            lam = dt * k_mix[:, k]
            state.T[:, k] = (state.T[:, k] + lam * state.T[:, k - 1]) / (1.0 + lam)
            qv[:, k] = (qv[:, k] + lam * qv[:, k - 1]) / (1.0 + lam)
            state.v[:, k] = (state.v[:, k] + lam[..., None] * state.v[:, k - 1]) / (
                1.0 + lam[..., None]
            )

        state.qdp[:, iq] = np.clip(qv, 0.0, None) * dp
