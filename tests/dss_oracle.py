"""Test oracle: the serial DSS of a contravariant vector field.

Contravariant components live in each face's coordinate frame, so they
cannot be averaged directly across cube edges.  The field is converted
to its frame-free Cartesian tangent representation, DSS'd componentwise
by the whole-mesh DSS and projected back — what both layouts do to
vectors, there one Cartesian component plane at a time
(:meth:`~repro.homme.element.ElementGeometry.to_cartesian_planes`).
(HOMME exchanges lat-lon components instead; the Cartesian form avoids
the polar special cases.)  The interleaved conversions here are written
out on their own, in the operation order the planes keep, so a test can
hold the planes to them bit for bit.
"""

import numpy as np


def _components(f):
    return [np.ascontiguousarray(f[..., c]) for c in range(f.shape[-1])]


def to_cartesian(geom, v):
    """Contravariant (E, [L,] np, np, 2) -> Cartesian tangent (..., 3)
    vectors: ``w = radius (v^1 e_1 + v^2 e_2)``, each component summed
    from +0.0."""
    e = geom.e_cov_planes[:, :, :, None] if v.ndim == 5 else geom.e_cov_planes
    v0, v1 = _components(v)
    w = np.empty(v.shape[:-1] + (3,))
    for j in range(3):
        wj = e[j, 0] * v0
        wj += 0.0
        wj += e[j, 1] * v1
        np.multiply(wj, geom.radius, out=w[..., j])
    return w


def from_cartesian(geom, w):
    """Inverse of :func:`to_cartesian`: ``v^i = metinv^{ij} radius
    (e_j . w)``, C-contiguous whatever ``w``'s layout."""
    e, metinv = geom.e_cov_planes, geom.metinv_planes
    if w.ndim == 5:
        e, metinv = e[:, :, :, None], metinv[:, :, :, None]
    w0, w1, w2 = _components(w)
    cov = []
    for i in range(2):
        c = e[0, i] * w0
        c += 0.0
        c += e[1, i] * w1
        c += e[2, i] * w2
        c *= geom.radius
        cov.append(c)
    v = np.empty(w.shape[:-1] + (2,))
    for k in range(2):
        vk = metinv[k, 0] * cov[0]
        vk += 0.0
        np.add(vk, metinv[k, 1] * cov[1], out=v[..., k])
    return v


def dss_vector(geom, v):
    """``from_cartesian(dss(to_cartesian(v)))`` of an (E, [L,] np, np, 2)
    field on a whole-mesh :class:`~repro.homme.element.ElementGeometry`."""
    w = to_cartesian(geom, v)
    # (E, np, np, 3) is already the mesh's layout; levels go through dss.
    return from_cartesian(geom, geom._mesh_dss(w) if v.ndim == 4 else geom.dss(w))
