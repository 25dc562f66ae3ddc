"""Spectral-element differential operators on the cubed sphere.

All operators act elementwise on **stacked** fields shaped
``(E, ..., np, np)`` (arbitrary middle axes — typically levels, or
tracers x levels) using the GLL derivative matrix along the two
horizontal axes, so one call covers the whole element batch.  This is
the operator library — diagnostics, physics and the Katrina tracker
call it directly — and the building block of the ``"batched"``
reference kernels; the production ``"fused"`` chains in
:mod:`repro.homme.fused` are cross-validated against it in
``tests/test_exec_paths.py``.

Every operator pulls its geometric factors from the memoized
:class:`~repro.homme.tensors.OperatorTensors` bundle on the geometry
(``geom.tensors``) instead of rebuilding them per call — derivative
matrices pre-transposed for ``matmul``, reciprocals of the Jacobian /
metric determinant / spheremp precomputed, metric components unpacked
to contiguous planes.  Every operator takes its fields and a geometry,
nothing else.

Conventions: face coordinate alpha varies along the **last** axis (j),
beta along the second-to-last (i).  Winds are contravariant; covariant
components are obtained with the metric.  Operators return
element-local (discontinuous) results — callers apply DSS where the
continuous projection is required, exactly as HOMME separates
``*_sphere`` operators from the boundary exchange.
"""

from __future__ import annotations

import numpy as np

from .element import ElementGeometry


def _match_dtype(out: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Cast a result back to the input field's dtype.

    The geometry tensors are float64, so matmuls and metric products
    silently promote single-precision fields; every operator casts its
    return through here so dtype is preserved end to end (a no-op for
    the standard float64 states).
    """
    return out if out.dtype == ref.dtype else out.astype(ref.dtype)


def d_dalpha(field: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """d(field)/d(alpha): GLL derivative along the last axis.

    ``out[..., i, j] = sum_m D[j, m] field[..., i, m] / J`` — a stacked
    matmul against the pre-transposed derivative matrix.
    """
    t = geom.tensors
    return _match_dtype(np.matmul(field, t.Dt) * t.inv_jac, field)


def d_dbeta(field: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """d(field)/d(beta): GLL derivative along the second-to-last axis."""
    t = geom.tensors
    return _match_dtype(np.matmul(t.D, field) * t.inv_jac, field)


def gradient_sphere(s: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Contravariant gradient of a scalar; output (..., np, np, 2).

    cov_k = d s / d x^k; grad^i = metinv^{ik} cov_k.
    """
    t = geom.tensors
    da = d_dalpha(s, geom)
    db = d_dbeta(s, geom)
    mi00 = t.bshape(t.metinv00, s)
    mi01 = t.bshape(t.metinv01, s)
    mi11 = t.bshape(t.metinv11, s)
    out = np.empty(s.shape + (2,), dtype=s.dtype)
    out[..., 0] = mi00 * da + mi01 * db
    out[..., 1] = mi01 * da + mi11 * db
    return out


def gradient_cov(s: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Covariant gradient (d s/d alpha, d s/d beta); output (..., np, np, 2)."""
    return np.stack([d_dalpha(s, geom), d_dbeta(s, geom)], axis=-1)


def divergence_sphere(v: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Divergence of a contravariant vector field (..., np, np, 2).

    div = (1/sqrt(g)) [ d(sqrt(g) v^1)/d alpha + d(sqrt(g) v^2)/d beta ].
    """
    t = geom.tensors
    metdet = t.bshape(t.metdet, v[..., 0])
    inv_metdet = t.bshape(t.inv_metdet, v[..., 0])
    f1 = metdet * v[..., 0]
    f2 = metdet * v[..., 1]
    out = (d_dalpha(f1, geom) + d_dbeta(f2, geom)) * inv_metdet
    return _match_dtype(out, v)


def _vcov(v: np.ndarray, geom: ElementGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Covariant components v_i = g_ij v^j of a contravariant field."""
    t = geom.tensors
    m00 = t.bshape(t.met00, v[..., 0])
    m01 = t.bshape(t.met01, v[..., 0])
    m11 = t.bshape(t.met11, v[..., 0])
    vcov1 = m00 * v[..., 0] + m01 * v[..., 1]
    vcov2 = m01 * v[..., 0] + m11 * v[..., 1]
    return vcov1, vcov2


def vorticity_sphere(v: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Relative vorticity (vertical component) of a contravariant field.

    zeta = (1/sqrt(g)) [ d v_2/d alpha - d v_1/d beta ] with covariant
    v_i = g_ij v^j.
    """
    t = geom.tensors
    vcov1, vcov2 = _vcov(v, geom)
    inv_metdet = t.bshape(t.inv_metdet, v[..., 0])
    out = (d_dalpha(vcov2, geom) - d_dbeta(vcov1, geom)) * inv_metdet
    return _match_dtype(out, v)


def kinetic_energy(v: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """E = 0.5 |v|^2 = 0.5 g_ij v^i v^j for contravariant winds."""
    t = geom.tensors
    m00 = t.bshape(t.met00, v[..., 0])
    m01 = t.bshape(t.met01, v[..., 0])
    m11 = t.bshape(t.met11, v[..., 0])
    v1, v2 = v[..., 0], v[..., 1]
    out = 0.5 * (m00 * v1 * v1 + 2.0 * (m01 * v1 * v2) + m11 * v2 * v2)
    return _match_dtype(out, v)


def k_cross(v: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """(k-hat x v) in contravariant components.

    On a 2-manifold: (k x v)^i = eps^{ij} v_j with eps^{12} = 1/sqrt(g),
    i.e. (k x v)^1 = -v_2/sqrt(g), (k x v)^2 = v_1/sqrt(g).
    """
    t = geom.tensors
    vcov1, vcov2 = _vcov(v, geom)
    inv_metdet = t.bshape(t.inv_metdet, v[..., 0])
    out = np.empty_like(v)
    out[..., 0] = -vcov2 * inv_metdet
    out[..., 1] = vcov1 * inv_metdet
    return out


def laplace_sphere(s: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Element-local Laplace--Beltrami operator div(grad s).

    Discontinuous across element edges; hyperviscosity applies DSS
    between the two Laplacian passes (see :mod:`repro.homme.hypervis`).
    """
    return divergence_sphere(gradient_sphere(s, geom), geom)


def laplace_sphere_wk(s: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Weak-form Laplacian (HOMME's ``laplace_sphere_wk``), exactly
    conservative under DSS.

    Computes W_ij = -integral over the element of grad(phi_ij) . grad(s)
    by GLL quadrature, then divides by spheremp so that
    ``geom.dss(laplace_sphere_wk(s))`` assembles to the continuous weak
    Laplacian.  Because the test functions phi_ij sum to one, the
    sphere integral of the assembled result is exactly zero — the
    property that keeps hyperviscosity on T and dp3d mass-conserving
    (the strong form div(grad s) leaks O(1e-7) mass per step through
    discontinuous edge fluxes).
    """
    t = geom.tensors
    grad = gradient_sphere(s, geom)  # contravariant g^{kl} d_l s
    fac = t.bshape(t.wk_fac, s)  # metdet * (w_p w_q) * J^2
    G1 = fac * grad[..., 0]
    G2 = fac * grad[..., 1]
    # sum_q G1[..., i, q] D[q, j]  and  sum_p D[p, i] G2[..., p, j]
    W = -(np.matmul(G1, t.D) + np.matmul(t.Dt, G2)) * t.inv_jac
    inv_spheremp = t.bshape(t.inv_spheremp, s)
    return _match_dtype(W * inv_spheremp, s)


def vlaplace_sphere(v: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Vector Laplacian in the HOMME form: grad(div v) - curl(curl v).

    Computed componentwise through scalar identities:
    lap(v) = grad(div v) - k x grad(zeta).
    """
    div = divergence_sphere(v, geom)
    zeta = vorticity_sphere(v, geom)
    g_div = gradient_sphere(div, geom)
    g_zeta = gradient_sphere(zeta, geom)
    return g_div - k_cross(g_zeta, geom)
