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
(:class:`StatePack`) instead of trailing-axis ``(..., 2)`` stacks.

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

Everything here is cross-validated against the batched path to 1e-12
(``tests/test_exec_paths.py``) and registered as the default
execution path (``exec_path="fused"``) in
:func:`repro.backends.functional_exec.homme_execution`.

An optional float32 compute mode (``dtype=np.float32``) runs the same
fused contractions in single precision against operands cast once per
mesh; :func:`cross_validate_fused` checks it against float64 (policy in
DESIGN.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants as C
from .element import ElementGeometry, ElementState
from .tensors import FUSED_DTYPES, FusedOperands, OperatorTensors
from .rhs import PTOP

__all__ = [
    "StatePack",
    "compute_rhs_fused",
    "cross_validate_fused",
    "fold_velocity",
    "laplace_sphere_wk_fused",
    "qdp_flux_divergence_fused",
    "sw_compute_rhs_fused",
    "vlaplace_sphere_fused",
]


def _operands(
    geom: ElementGeometry,
    tensors: OperatorTensors | None,
    ref: np.ndarray,
    dtype,
) -> FusedOperands:
    """Resolve the fused operand bundle for a call.

    ``dtype=None`` computes in the input field's dtype (float64 for all
    the standard model states); non-float dtypes fall back to float64.
    """
    t = tensors if tensors is not None else geom.tensors
    dt = np.dtype(dtype) if dtype is not None else np.dtype(ref.dtype)
    if dt not in FUSED_DTYPES:
        dt = np.dtype(np.float64)
    return t.fused(dt)


def _as(arr: np.ndarray, f: FusedOperands) -> np.ndarray:
    """View/cast an input field to the bundle's compute dtype."""
    return arr.astype(f.dtype, copy=False)


def _split_v(v: np.ndarray, f: FusedOperands) -> tuple[np.ndarray, np.ndarray]:
    """SoA component planes from a trailing-axis (..., 2) vector field."""
    return (
        np.ascontiguousarray(v[..., 0], dtype=f.dtype),
        np.ascontiguousarray(v[..., 1], dtype=f.dtype),
    )


@dataclass(frozen=True)
class StatePack:
    """Structure-of-arrays pack of the prognostic fields.

    The AoS ``(..., 2)`` wind layout is what forces the batched
    operators into strided reads; packing once per RHS evaluation gives
    every downstream contraction contiguous ``(E, L, np, np)`` planes
    (and performs the single cast of the optional float32 mode).
    """

    v1: np.ndarray
    v2: np.ndarray
    T: np.ndarray
    dp3d: np.ndarray

    @classmethod
    def from_state(cls, state: ElementState, dtype=np.float64) -> "StatePack":
        dt = np.dtype(dtype)
        return cls(
            v1=np.ascontiguousarray(state.v[..., 0], dtype=dt),
            v2=np.ascontiguousarray(state.v[..., 1], dtype=dt),
            T=np.ascontiguousarray(state.T, dtype=dt),
            dp3d=np.ascontiguousarray(state.dp3d, dtype=dt),
        )


# ---------------------------------------------------------------------------
# Fused hyperviscosity kernels
# ---------------------------------------------------------------------------

def laplace_sphere_wk_fused(
    s: np.ndarray,
    geom: ElementGeometry,
    tensors: OperatorTensors | None = None,
    dtype=None,
) -> np.ndarray:
    """Weak Laplacian as one fused contraction pass.

    Matches :func:`repro.homme.operators.laplace_sphere_wk` to roundoff:
    four matmuls plus folded-plane multiply-adds, no gradient stack.
    """
    f = _operands(geom, tensors, s, dtype)
    s = _as(s, f)
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
    v: np.ndarray,
    geom: ElementGeometry,
    tensors: OperatorTensors | None = None,
    dtype=None,
) -> np.ndarray:
    """Vector Laplacian grad(div v) - k x grad(zeta), fused.

    Shares the covariant wind components between the divergence and the
    vorticity, and uses the analytic cancellation
    ``(k x grad zeta)^i = (-d_beta zeta, +d_alpha zeta) / (sqrt(g) J)``
    instead of the batched path's metric round-trip.
    """
    f = _operands(geom, tensors, v, dtype)
    v1, v2 = _split_v(v, f)
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
    out = np.empty(v1.shape + (2,), dtype=f.dtype)
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
    h: np.ndarray,
    v: np.ndarray,
    geom: ElementGeometry,
    tensors: OperatorTensors | None = None,
    dtype=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shallow-water tendencies in one fused pass.

    The covariant wind components feed vorticity, kinetic energy *and*
    the rotational term ``-(zeta + f) k x v`` (whose contravariant
    components are ``(+vc2, -vc1) / sqrt(g)``), so the metric is applied
    exactly once.
    """
    f = _operands(geom, tensors, h, dtype)
    h = _as(h, f)
    v1, v2 = _split_v(v, f)
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

    fcor = geom.fcor if f.dtype == np.float64 else geom.fcor.astype(f.dtype)
    avort = zeta
    avort += fcor
    avort *= imd

    mi00 = f.bshape(f.mi00j, h)
    mi01 = f.bshape(f.mi01j, h)
    mi11 = f.bshape(f.mi11j, h)
    dv = np.empty(v1.shape + (2,), dtype=f.dtype)
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
    tensors: OperatorTensors | None = None,
    dtype=None,
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
    f = _operands(geom, tensors, state.T, dtype)
    pk = StatePack.from_state(state, f.dtype)
    v1, v2, T, dp3d = pk.v1, pk.v2, pk.T, pk.dp3d

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
    # kernels of Section 7.4), kept in the compute dtype.
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
        phi += _as(phis, f)[:, None]

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
    dv = np.empty(v1.shape + (2,), dtype=f.dtype)
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
    f = _operands(geom, None, v, None)
    v1, v2 = _split_v(v, f)
    md = f.bshape(f.metdet, v1)
    return md * v1, md * v2


def qdp_flux_divergence_fused(
    qdp: np.ndarray,
    vm: tuple[np.ndarray, np.ndarray],
    geom: ElementGeometry,
    tensors: OperatorTensors | None = None,
) -> np.ndarray:
    """Fused flux divergence div(v qdp) for all tracers at once — the
    advective tendency's negation, which the SSP stages fold into -dt.

    ``qdp`` is (E, Q, L, n, n); ``vm`` the folded planes from
    :func:`fold_velocity`.  No ``(..., 2)`` flux stack is materialized —
    each component plane goes straight into its derivative matmul.
    """
    f = _operands(geom, tensors, qdp, qdp.dtype)
    vm1, vm2 = vm
    flux = vm1[:, None] * qdp
    out = f.da(flux)
    np.multiply(vm2[:, None], qdp, out=flux)
    out += f.db(flux)
    out *= f.bshape(f.imdj, qdp)
    return out


# ---------------------------------------------------------------------------
# Cross-validation (float64 fused vs batched, float32 fused vs float64)
# ---------------------------------------------------------------------------

def cross_validate_fused(
    state: ElementState,
    geom: ElementGeometry,
    phis: np.ndarray | None = None,
    rtol64: float = 1e-12,
    rtol32: float = 1e-3,
) -> dict[str, float]:
    """Validate the fused kernels: float64 vs batched, float32 vs float64.

    Returns max relative disagreements per kernel; raises
    :class:`~repro.errors.KernelError` when the float64 fused path
    drifts past ``rtol64`` from batched, or the float32 mode past
    ``rtol32`` from the float64 fused results (policy: f32 is an opt-in
    throughput mode, never the default — DESIGN.md §14).
    """
    from ..errors import KernelError
    from . import operators as op
    from .shallow_water import sw_compute_rhs
    from .rhs import compute_rhs

    def rel(a, b):
        scale = max(float(np.max(np.abs(a))), 1e-300)
        return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - b))) / scale

    def run(dt):
        rhs = compute_rhs_fused(state, geom, phis, dtype=dt)
        return {
            "compute_rhs.dv": rhs[0],
            "compute_rhs.dT": rhs[1],
            "compute_rhs.ddp": rhs[2],
            "laplace_wk": laplace_sphere_wk_fused(state.T, geom, dtype=dt),
            "vlaplace": vlaplace_sphere_fused(state.v, geom, dtype=dt),
        } | dict(
            zip(
                ("sw_rhs.dh", "sw_rhs.dv"),
                sw_compute_rhs_fused(state.T[:, 0], state.v[:, 0], geom, dtype=dt),
            )
        )

    b_rhs = compute_rhs(state, geom, phis)
    batched = {
        "compute_rhs.dv": b_rhs[0],
        "compute_rhs.dT": b_rhs[1],
        "compute_rhs.ddp": b_rhs[2],
        "laplace_wk": op.laplace_sphere_wk(state.T, geom),
        "vlaplace": op.vlaplace_sphere(state.v, geom),
    } | dict(
        zip(("sw_rhs.dh", "sw_rhs.dv"), sw_compute_rhs(state.T[:, 0], state.v[:, 0], geom))
    )
    f64 = run(np.float64)
    f32 = run(np.float32)

    errs: dict[str, float] = {}
    for tag, tol, got, ref in (
        ("f64", rtol64, f64, batched),
        ("f32", rtol32, f32, f64),
    ):
        for name in got:
            errs[f"{tag}.{name}"] = rel(ref[name], got[name])
        worst = max(v for k, v in errs.items() if k.startswith(tag))
        if worst > tol:
            raise KernelError(
                f"fused {tag} cross-validation failed: max rel err "
                f"{worst:.3e} > {tol:.1e} ({errs})"
            )
    return errs
