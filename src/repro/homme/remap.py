"""``vertical_remap``: conservative monotone remap to reference levels.

Table 1: "compute the vertical flux needed to get back to reference
eta-coordinate levels".  After the RK dynamics the Lagrangian layers
have floated; this kernel remaps (u, v, T, q) from the floating
thicknesses ``dp_src`` back to the reference thicknesses
``dp_ref(ps)`` using the piecewise parabolic method (PPM) with the
Colella--Woodward monotonic limiter, mass-conservative by construction
(remapped via the cumulative-integral formulation).

Columns are independent — this is the other kernel class the paper's
8 x 16 layer decomposition (Figure 2) parallelizes across CPE rows.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from .element import ElementState
from .rhs import PTOP


def _a6(a, aL, aR):
    """Curvature coefficient 6 (a - (aL + aR) / 2) of the PPM parabola."""
    a6 = aL + aR
    a6 *= 0.5
    np.subtract(a, a6, out=a6)
    a6 *= 6.0
    return a6


def _edge_values(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ppm_edge_values` with layers on the **first** axis.

    Levels-first, every slice below is a run of whole contiguous levels,
    so each pass is one long inner loop over all columns instead of one
    L-element loop per column.
    """
    L = len(a)
    if L < 2:
        raise KernelError("PPM needs at least 2 layers")
    # [a_0, the L - 1 interface estimates a_{k+1/2}, a_{L-1}]: before
    # limiting, aL and aR are this block without its last / first level.
    edges = np.empty((L + 1,) + a.shape[1:])
    edges[0], edges[-1] = a[0], a[-1]
    iface = edges[1:-1]
    if L >= 4:
        inner = a[1:-2] + a[2:-1]
        inner *= 7.0
        inner -= a[3:] + a[:-3]
        np.divide(inner, 12.0, out=iface[1:-1])
        iface[0] = 0.5 * (a[0] + a[1])
        iface[-1] = 0.5 * (a[-2] + a[-1])
    else:
        np.multiply(0.5, a[:-1] + a[1:], out=iface)
    # Clamp interface values between adjacent cell means (monotone edges).
    np.clip(iface, np.minimum(a[:-1], a[1:]), np.maximum(a[:-1], a[1:]), out=iface)
    aL, aR = edges[:-1], edges[1:]

    # Colella-Woodward limiter: local extrema become piecewise constant;
    # overshooting parabolas are reset on one side.
    extrema = (aR - a) * (a - aL) <= 0.0
    aL = np.where(extrema, a, aL)
    aR = np.where(extrema, a, aR)
    da = aR - aL
    da_a6 = da * _a6(a, aL, aR)
    da2 = np.multiply(da, da, out=da)
    a3 = 3.0 * a
    aL = np.where(da_a6 > da2, a3 - 2.0 * aR, aL)
    aR = np.where(da_a6 < -da2, a3 - 2.0 * aL, aR)
    return aL, aR


def ppm_edge_values(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monotone-limited PPM edge values aL, aR per cell.

    ``a`` has layers on the last axis.  Edges use the 4th-order uniform
    formula (the floating Lagrangian grid stays near-uniform in sigma
    between remaps), clamped to the neighbouring cell means to keep the
    reconstruction monotone.
    """
    aL, aR = _edge_values(np.moveaxis(np.asarray(a), -1, 0))
    return np.moveaxis(aL, 0, -1), np.moveaxis(aR, 0, -1)


class RemapPlan:
    """Where every target interface of a column set lies in its source grid.

    Everything about a remap that does not depend on the field: the
    thickness and column-mass checks, and for each interior target
    interface the source cell ``k`` containing it, that cell's thickness
    ``dz`` and the fraction ``xi`` of it below the interface (with its
    square and cube).  Built once per ``(dp_src, dp_tgt)``, applied to
    one field at a time — ``vertical_remap`` remaps 3 + Q fields over
    the same pair.  Unlike :func:`remap_ppm`, arrays here have layers on
    the **first** axis (see :func:`_edge_values`); every array held is
    O(L * ncol).
    """

    def __init__(self, dp_src: np.ndarray, dp_tgt: np.ndarray) -> None:
        dp_src = np.asarray(dp_src, dtype=np.float64)
        dp_tgt = np.asarray(dp_tgt, dtype=np.float64)
        if dp_src.shape != dp_tgt.shape:
            raise KernelError("remap arrays must share shapes")
        self.shape = dp_src.shape
        L = self.shape[0]
        dps = np.ascontiguousarray(dp_src.reshape(L, -1))
        dpt = np.ascontiguousarray(dp_tgt.reshape(L, -1))
        for dp in (dps, dpt):
            if not np.all(np.isfinite(dp) & (dp > 0)):
                raise KernelError("layer thicknesses must be positive and finite")
        zi_s = np.cumsum(dps, axis=0)
        zi_t = np.cumsum(dpt, axis=0)
        if not np.allclose(zi_s[-1], zi_t[-1], rtol=1e-10):
            raise KernelError("source and target grids must span the same column mass")
        ncol = dps.shape[1]
        # Left interface of every source cell, and the interior target
        # interfaces (the outer two are the column's ends: mass 0 and total).
        left = np.concatenate([np.zeros((1, ncol)), zi_s[:-1]])
        z = zi_t[:-1]
        # Cell containing z: the last whose left interface is <= z.  A
        # stable sort of (left ++ z) within each column puts a left
        # interface before a target interface it equals, and both halves
        # are already ascending, so target j lands at position
        # (number of left interfaces <= z_j) + j.
        order = np.argsort(np.concatenate([left, z]).T, axis=1, kind="stable")
        at = np.nonzero(order >= L)[1].reshape(ncol, L - 1).T
        k = np.clip(at - np.arange(L - 1)[:, None] - 1, 0, L - 1)
        self._k = (k * ncol + np.arange(ncol)).ravel()
        self._dps, self._dpt = dps, dpt
        self._dz = dps.take(self._k)
        xi = np.clip((z.ravel() - left.take(self._k)) / self._dz, 0.0, 1.0)
        self._xi, self._xi2, self._xi3 = xi, xi**2, xi**3

    def apply(self, a_src: np.ndarray) -> np.ndarray:
        """Remap one field of cell means onto the target grid."""
        a_src = np.asarray(a_src, dtype=np.float64)
        if a_src.shape != self.shape:
            raise KernelError("remap arrays must share shapes")
        dps, k = self._dps, self._k
        a = np.ascontiguousarray(a_src.reshape(dps.shape))
        aL, aR = _edge_values(a)
        da = aR - aL
        a6 = _a6(a, aL, aR)
        # Cumulative mass at every target interface: 0, the parabola of
        # cell k integrated up to each interior one, the column total.
        m = np.empty((len(a) + 1, a.shape[1]))
        m[0] = 0.0
        np.cumsum(a * dps, axis=0, out=m[1:])
        aL, da, a6 = aL.take(k), da.take(k), a6.take(k)
        inside = aL * self._xi + 0.5 * (da + a6) * self._xi2 - a6 * self._xi3 / 3.0
        m[1:-1] = (m.take(k) + self._dz * inside).reshape(len(a) - 1, -1)
        return ((m[1:] - m[:-1]) / self._dpt).reshape(self.shape)


def remap_ppm(
    a_src: np.ndarray, dp_src: np.ndarray, dp_tgt: np.ndarray
) -> np.ndarray:
    """Remap cell means from source to target layer grids, conservatively.

    All arrays have layers on the **last** axis; leading axes are
    independent columns.  Source and target grids must span the same
    total (sum of dp equal per column).
    """
    plan = RemapPlan(np.moveaxis(dp_src, -1, 0), np.moveaxis(dp_tgt, -1, 0))
    out = plan.apply(np.moveaxis(a_src, -1, 0))
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def reference_dp(ps: np.ndarray, nlev: int, ptop: float = PTOP) -> np.ndarray:
    """Reference (uniform-sigma) layer thicknesses for surface pressure ps.

    dp_k = (ps - ptop) / nlev broadcast over the level axis inserted at
    position 1 of ``ps``'s shape (E, n, n) -> (E, L, n, n).
    """
    dp = (ps - ptop) / nlev
    return np.repeat(dp[:, None], nlev, axis=1)


def vertical_remap(state: ElementState, ptop: float = PTOP) -> ElementState:
    """Remap the full state back to reference levels; returns a new state.

    Velocity and temperature remap mass-weighted (conserving momentum
    and internal energy); tracers remap as qdp directly (conserving
    tracer mass).  One :class:`RemapPlan` serves all 3 + Q fields, one
    field at a time (a stacked (3 + Q, L, ncol) block is no faster and
    holds every field's temporaries at once).  All four output arrays
    are C-contiguous.
    """
    dp_tgt = reference_dp(state.ps(ptop), state.nlev, ptop)

    # Layers on the first axis for the remap kernel.
    def to_first(x):
        return np.moveaxis(x, 1, 0)

    def from_first(x):
        return np.moveaxis(x, 0, 1)

    dps_f, dpt_f = to_first(state.dp3d), to_first(dp_tgt)
    plan = RemapPlan(dps_f, dpt_f)
    new = ElementState(
        np.empty_like(state.v), np.empty_like(state.T), dp_tgt,
        np.empty_like(state.qdp),
    )
    new.T[...] = from_first(plan.apply(to_first(state.T)))
    for c in range(2):
        new.v[..., c] = from_first(plan.apply(to_first(state.v[..., c])))
    for q in range(state.qsize):
        # qdp / dp is the conserved-density form: remap mixing ratio and
        # rebuild qdp on the target grid so tracer mass integrates identically.
        qmix = to_first(state.qdp[:, q]) / dps_f
        new.qdp[:, q] = from_first(plan.apply(qmix) * dpt_f)
    return new
