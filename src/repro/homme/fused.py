"""Fused BLAS-contraction fast path for the HOMME hot chains.

The batched operators in :mod:`repro.homme.operators` are already
single-dispatch per kernel, but each *chain* (RHS, weak Laplacian,
vector Laplacian, tracer stage) still materializes a full
``(E, ..., np, np)`` intermediate per operator call — ``gradient_sphere``
writes a strided ``(..., 2)`` stack that ``divergence_sphere``
immediately re-reads, the vector Laplacian multiplies by the metric and
then by its inverse, and the metric/Jacobian/quadrature factors are
applied as separate elementwise passes after every derivative matmul.

This module is the Python-level analogue of the paper's fine-grained
Athread rewrite (Section 7.3): each chain becomes **one pass** over the
stacked layout, contracting against per-mesh operands with the scalings
folded in once (:class:`~repro.homme.tensors.FusedOperands`, cached on
``OperatorTensors``), sharing intermediates across the chain
(covariant winds feed both vorticity and kinetic energy; the pressure
derivatives feed both the contravariant and covariant gradients;
``div(v dp)`` is computed once for omega/p and the continuity
tendency), and working on structure-of-arrays component planes
instead of trailing-axis ``(..., 2)`` stacks.

Two analytic simplifications keep the operation count down without
changing the math:

- ``k x grad(zeta)`` in the vector Laplacian: the covariant components
  of a contravariant gradient are the bare coordinate derivatives
  (``g . g^{-1}`` cancels), so
  ``(k x grad zeta)^1 = -d_beta(zeta) / (sqrt(g) J)`` and
  ``(k x grad zeta)^2 = +d_alpha(zeta) / (sqrt(g) J)`` — no metric
  round-trip;
- the weak-Laplacian first pass contracts directly against
  ``wk_fac * metinv * inv_jac`` planes.

Every kernel takes its fields and a geometry, computes in float64
against ``geom.tensors.fused()``, and is held to its batched twin to
1e-12 by a Hypothesis property (``tests/test_exec_paths.py``); the set
is registered as the default execution path (``exec_path="fused"``) in
:func:`repro.backends.functional_exec.homme_execution`.
"""

from __future__ import annotations

import numpy as np

from .. import constants as C
from .element import ElementGeometry, ElementState
from .rhs import PTOP

__all__ = [
    "compute_rhs_fused",
    "fold_velocity",
    "laplace_sphere_wk_fused",
    "qdp_flux_divergence_fused",
    "sw_compute_rhs_fused",
    "vlaplace_sphere_fused",
]


def _split_v(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SoA component planes from a trailing-axis (..., 2) vector field."""
    return np.ascontiguousarray(v[..., 0]), np.ascontiguousarray(v[..., 1])


# ---------------------------------------------------------------------------
# Fused hyperviscosity kernels
# ---------------------------------------------------------------------------

def laplace_sphere_wk_fused(
    s: np.ndarray, geom: ElementGeometry
) -> np.ndarray:
    """Weak Laplacian as one fused contraction pass.

    Matches :func:`repro.homme.operators.laplace_sphere_wk` to roundoff:
    four matmuls plus folded-plane multiply-adds, no gradient stack.
    """
    f = geom.tensors.fused()
    da = f.da(s)
    db = f.db(s)
    w00 = f.bshape(f.wk00, s)
    w01 = f.bshape(f.wk01, s)
    w11 = f.bshape(f.wk11, s)
    G1 = w00 * da
    G1 += w01 * db
    da *= w01
    db *= w11
    da += db
    out = f.wa(G1)
    out += f.wb(da)
    out *= f.bshape(f.wk_out, s)
    return out


def vlaplace_sphere_fused(
    v: np.ndarray, geom: ElementGeometry
) -> np.ndarray:
    """Vector Laplacian grad(div v) - k x grad(zeta), fused.

    Shares the covariant wind components between the divergence and the
    vorticity, and uses the analytic cancellation
    ``(k x grad zeta)^i = (-d_beta zeta, +d_alpha zeta) / (sqrt(g) J)``
    instead of the batched path's metric round-trip.
    """
    f = geom.tensors.fused()
    v1, v2 = _split_v(v)
    md = f.bshape(f.metdet, v1)
    m00 = f.bshape(f.met00, v1)
    m01 = f.bshape(f.met01, v1)
    m11 = f.bshape(f.met11, v1)
    imdj = f.bshape(f.imdj, v1)

    vc1 = m00 * v1
    vc1 += m01 * v2
    vc2 = m01 * v1
    vc2 += m11 * v2

    div = md * v1
    div = f.da(div)
    mv2 = md * v2
    div += f.db(mv2)
    div *= imdj
    zeta = f.da(vc2)
    zeta -= f.db(vc1)
    zeta *= imdj

    dda = f.da(div)
    ddb = f.db(div)
    dza = f.da(zeta)
    dzb = f.db(zeta)

    mi00 = f.bshape(f.mi00j, v1)
    mi01 = f.bshape(f.mi01j, v1)
    mi11 = f.bshape(f.mi11j, v1)
    out = np.empty(v1.shape + (2,))
    o1 = mi00 * dda
    o1 += mi01 * ddb
    dzb *= imdj
    o1 += dzb
    o2 = mi01 * dda
    o2 += mi11 * ddb
    dza *= imdj
    o2 -= dza
    out[..., 0] = o1
    out[..., 1] = o2
    return out


# ---------------------------------------------------------------------------
# Fused RHS chains
# ---------------------------------------------------------------------------

def sw_compute_rhs_fused(
    h: np.ndarray, v: np.ndarray, geom: ElementGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Shallow-water tendencies in one fused pass.

    The covariant wind components feed vorticity, kinetic energy *and*
    the rotational term ``-(zeta + f) k x v`` (whose contravariant
    components are ``(+vc2, -vc1) / sqrt(g)``), so the metric is applied
    exactly once.
    """
    f = geom.tensors.fused()
    v1, v2 = _split_v(v)
    md = f.bshape(f.metdet, h)
    imd = f.bshape(f.inv_metdet, h)
    imdj = f.bshape(f.imdj, h)
    m00 = f.bshape(f.met00, h)
    m01 = f.bshape(f.met01, h)
    m11 = f.bshape(f.met11, h)

    vc1 = m00 * v1
    vc1 += m01 * v2
    vc2 = m01 * v1
    vc2 += m11 * v2

    # Energy E = 0.5 g_ij v^i v^j + g h and its derivatives.
    E = vc1 * v1
    E += vc2 * v2
    E *= 0.5
    E += C.GRAVITY * h
    dEa = f.da(E)
    dEb = f.db(E)

    zeta = f.da(vc2)
    zeta -= f.db(vc1)
    zeta *= imdj

    avort = zeta
    avort += geom.fcor
    avort *= imd

    mi00 = f.bshape(f.mi00j, h)
    mi01 = f.bshape(f.mi01j, h)
    mi11 = f.bshape(f.mi11j, h)
    dv = np.empty(v1.shape + (2,))
    g1 = mi00 * dEa
    g1 += mi01 * dEb
    dEa *= mi01
    dEb *= mi11
    dEa += dEb
    # The covariant winds are free after the gradient assembly: fold
    # the rotational term into them in place.
    vc2 *= avort
    vc2 -= g1
    dv[..., 0] = vc2
    vc1 *= avort
    vc1 += dEa
    np.negative(vc1, out=vc1)
    dv[..., 1] = vc1

    mh = md * h
    dh = mh * v1
    dh = f.da(dh)
    mh *= v2
    dh += f.db(mh)
    dh *= imdj
    np.negative(dh, out=dh)
    return dh, dv


def compute_rhs_fused(
    state: ElementState,
    geom: ElementGeometry,
    phis: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primitive-equation tendencies (dv, dT, ddp) as one fused pass.

    Same math as :func:`repro.homme.rhs.compute_rhs`, restructured so
    shared intermediates are computed once: the three scalar fields
    needing derivatives (E + Phi, p_mid, T) go through the GLL matmuls
    as a single stacked batch; the pressure derivatives serve both the
    contravariant ``grad(p)`` in the momentum equation and the
    covariant ``v . grad(p)`` in omega; ``div(v dp)`` serves both the
    omega column scan and the continuity tendency.
    """
    state.check_consistent()
    f = geom.tensors.fused()
    # Structure-of-arrays planes: the (..., 2) wind layout would force
    # every contraction below onto strided reads.
    v1, v2 = _split_v(state.v)
    T = np.ascontiguousarray(state.T)
    dp3d = np.ascontiguousarray(state.dp3d)

    md = f.bshape(f.metdet, T)
    imd = f.bshape(f.inv_metdet, T)
    imdj = f.bshape(f.imdj, T)
    m00 = f.bshape(f.met00, T)
    m01 = f.bshape(f.met01, T)
    m11 = f.bshape(f.met11, T)
    mi00 = f.bshape(f.mi00j, T)
    mi01 = f.bshape(f.mi01j, T)
    mi11 = f.bshape(f.mi11j, T)

    # Vertical scans (cheap, column-sequential — the register-communication
    # kernels of Section 7.4).
    p_mid = np.cumsum(dp3d, axis=1)
    p_mid -= 0.5 * dp3d
    p_mid += PTOP

    # Hydrostatic geopotential, inlined so rt_over_p = R T / p (needed
    # by the momentum equation anyway) is computed once, and the
    # below-level suffix sum comes from one contiguous cumsum
    # (total - inclusive prefix) instead of a flip/cumsum/flip.
    rt_over_p = C.R_DRY * T
    rt_over_p /= p_mid
    rt = rt_over_p * dp3d
    phi = np.cumsum(rt, axis=1)
    total = phi[:, -1:].copy()
    np.subtract(total, phi, out=phi)
    rt *= 0.5
    phi += rt
    if phis is not None:
        # The caller's array, so not bshape's: that cache is keyed by id
        # and kept for the life of the bundle.
        phi += phis[:, None]

    vc1 = m00 * v1
    vc1 += m01 * v2
    vc2 = m01 * v1
    vc2 += m11 * v2

    # E + Phi, p_mid and T share one stacked derivative GEMM per side;
    # phi's buffer becomes E + Phi in place.
    ke = vc1 * v1
    ke += vc2 * v2
    ke *= 0.5
    phi += ke
    S = np.stack([phi, p_mid, T])
    Sa = f.da(S)
    Sb = f.db(S)
    dEa, dpa, dTa = Sa[0], Sa[1], Sa[2]
    dEb, dpb, dTb = Sb[0], Sb[1], Sb[2]

    zeta = f.da(vc2)
    zeta -= f.db(vc1)
    zeta *= imdj
    avort = zeta
    avort += f.bshape(geom.fcor, T)
    avort *= imd

    # div(v dp) once, for both the omega column scan and continuity.
    vdp = v1 * dp3d
    vdp *= md
    divdp = f.da(vdp)
    np.multiply(v2, dp3d, out=vdp)
    vdp *= md
    divdp += f.db(vdp)
    divdp *= imdj

    # omega/p and dT before the pressure/temperature derivatives are
    # consumed in place by the momentum assembly below.
    vgradp = v1 * dpa
    vgradp += v2 * dpb
    vgradp *= f.inv_jac
    above = np.cumsum(divdp, axis=1)
    vgradp -= above
    np.multiply(divdp, 0.5, out=above)
    vgradp += above
    vgradp /= p_mid
    omega_p = vgradp

    v_dot_gradT = v1 * dTa
    v_dot_gradT += v2 * dTb
    v_dot_gradT *= f.inv_jac
    omega_p *= T
    omega_p *= C.KAPPA
    omega_p -= v_dot_gradT
    dT = omega_p

    # Covariant total gradient F = grad(E + Phi) + (R T / p) grad(p):
    # the metinv contraction factors, so apply it once to F.
    dpa *= rt_over_p
    dpa += dEa
    dpb *= rt_over_p
    dpb += dEb
    G1 = mi00 * dpa
    G1 += mi01 * dpb
    dpa *= mi01
    dpb *= mi11
    dpa += dpb
    dv = np.empty(v1.shape + (2,))
    vc2 *= avort
    vc2 -= G1
    dv[..., 0] = vc2
    vc1 *= avort
    vc1 += dpa
    np.negative(vc1, out=vc1)
    dv[..., 1] = vc1

    ddp = np.negative(divdp, out=divdp)
    return dv, dT, ddp


# ---------------------------------------------------------------------------
# Fused SSP-RK2 tracer stage
# ---------------------------------------------------------------------------

def fold_velocity(
    v: np.ndarray, geom: ElementGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """metdet-folded SoA velocity planes ``(sqrt(g) v^1, sqrt(g) v^2)``.

    The flux-form divergence needs ``sqrt(g) v`` per tracer per stage;
    the velocity is stage-constant, so fold the metric in once and
    share the planes across all tracers and both RK stages.
    """
    f = geom.tensors.fused()
    v1, v2 = _split_v(v)
    md = f.bshape(f.metdet, v1)
    return md * v1, md * v2


def qdp_flux_divergence_fused(
    qdp: np.ndarray,
    vm: tuple[np.ndarray, np.ndarray],
    geom: ElementGeometry,
) -> np.ndarray:
    """Fused flux divergence div(v qdp) for all tracers at once — the
    advective tendency's negation, which the SSP stages fold into -dt.

    ``qdp`` is (E, Q, L, n, n); ``vm`` the folded planes from
    :func:`fold_velocity`.  No ``(..., 2)`` flux stack is materialized —
    each component plane goes straight into its derivative matmul.
    """
    f = geom.tensors.fused()
    vm1, vm2 = vm
    flux = vm1[:, None] * qdp
    out = f.da(flux)
    np.multiply(vm2[:, None], qdp, out=flux)
    out += f.db(flux)
    out *= f.bshape(f.imdj, qdp)
    return out
