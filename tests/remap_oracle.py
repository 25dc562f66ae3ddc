"""Test oracle: ``remap_ppm`` as a loop over target levels.

The remap as it ran before it was built around one location per column
set (:class:`repro.homme.remap.RemapPlan`): layers on the last axis, the
interface grids rebuilt per call, and each target interface located by an
O(L) compare per column inside a Python loop over target levels — slow,
obviously right, and the arithmetic the plan must reproduce bit for bit.
"""

import numpy as np


def oracle_edge_values(a):
    """Monotone-limited PPM edge values aL, aR per cell (layers last)."""
    L = a.shape[-1]
    if L >= 4:
        inner = (7.0 * (a[..., 1:-2] + a[..., 2:-1]) - (a[..., 3:] + a[..., :-3])) / 12.0
        first = 0.5 * (a[..., 0] + a[..., 1])
        last = 0.5 * (a[..., -2] + a[..., -1])
        iface = np.concatenate([first[..., None], inner, last[..., None]], axis=-1)
    else:
        iface = 0.5 * (a[..., :-1] + a[..., 1:])
    lo = np.minimum(a[..., :-1], a[..., 1:])
    hi = np.maximum(a[..., :-1], a[..., 1:])
    iface = np.clip(iface, lo, hi)
    aL = np.concatenate([a[..., :1], iface], axis=-1)
    aR = np.concatenate([iface, a[..., -1:]], axis=-1)
    extrema = (aR - a) * (a - aL) <= 0.0
    aL = np.where(extrema, a, aL)
    aR = np.where(extrema, a, aR)
    da = aR - aL
    a6 = 6.0 * (a - 0.5 * (aL + aR))
    overshoot_l = da * a6 > da * da
    aL = np.where(overshoot_l, 3.0 * a - 2.0 * aR, aL)
    overshoot_r = da * a6 < -da * da
    aR = np.where(overshoot_r, 3.0 * a - 2.0 * aL, aR)
    return aL, aR


def _partial_integral(aL, da, a6, xi):
    """Integral of the PPM parabola over cell fraction [0, xi]."""
    return aL * xi + 0.5 * (da + a6) * xi**2 - a6 * xi**3 / 3.0


def oracle_remap_ppm(a_src, dp_src, dp_tgt):
    """Remap cell means (layers last) from ``dp_src`` to ``dp_tgt``."""
    L = a_src.shape[-1]
    ncol = a_src.size // L
    a = a_src.reshape(ncol, L)
    dps = dp_src.reshape(ncol, L)
    dpt = dp_tgt.reshape(ncol, L)

    zi_s = np.concatenate([np.zeros((ncol, 1)), np.cumsum(dps, axis=1)], axis=1)
    zi_t = np.concatenate([np.zeros((ncol, 1)), np.cumsum(dpt, axis=1)], axis=1)

    aL, aR = oracle_edge_values(a)
    da = aR - aL
    a6 = 6.0 * (a - 0.5 * (aL + aR))
    # Cumulative mass at source interfaces.
    cmass = np.concatenate([np.zeros((ncol, 1)), np.cumsum(a * dps, axis=1)], axis=1)
    cols = np.arange(ncol)

    def cumulative_at(z):
        """Cumulative mass at positions z (ncol,), via the parabola."""
        # Cell containing z: largest k with zi_s[:, k] <= z, clipped to L-1.
        k = np.clip((zi_s[:, :-1] <= z[:, None]).sum(axis=1) - 1, 0, L - 1)
        dz = dps[cols, k]
        xi = np.clip((z - zi_s[cols, k]) / dz, 0.0, 1.0)
        return cmass[cols, k] + dz * _partial_integral(
            aL[cols, k], da[cols, k], a6[cols, k], xi
        )

    out = np.empty_like(a)
    m_lo = np.zeros(ncol)
    for kt in range(L):
        m_hi = cmass[:, -1] if kt == L - 1 else cumulative_at(zi_t[:, kt + 1])
        out[:, kt] = (m_hi - m_lo) / dpt[:, kt]
        m_lo = m_hi
    return out.reshape(a_src.shape)
