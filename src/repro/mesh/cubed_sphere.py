"""Equiangular gnomonic cubed-sphere geometry with analytic metric terms.

Each of the six cube faces carries face coordinates
(alpha, beta) in [-pi/4, pi/4]^2; with X = tan(alpha), Y = tan(beta) and
rho^2 = 1 + X^2 + Y^2 the metric tensor of the equiangular projection is::

    g_ij = R^2 (1+X^2)(1+Y^2) / rho^4 * [[1+X^2, -X Y], [-X Y, 1+Y^2]]

with sqrt(det g) = R^2 (1+X^2)(1+Y^2) / rho^3.  These are the exact
terms HOMME stores per element (``metdet``, ``met``, ``metinv``) and the
spectral-element operators in :mod:`repro.homme.operators` consume them
directly.

Faces are tiled by ``ne x ne`` elements, each with an ``np x np`` GLL
grid.  Global degree-of-freedom assembly (shared edges/corners) is done
geometrically: GLL points are identified by their rounded unit-sphere
coordinates, which handles cross-face edges and cube corners without a
hand-written orientation table.  This mesh is used by the functional
dycore at laptop scale (ne <= ~32); the structural machinery in
:mod:`repro.mesh.connectivity` covers arbitrary ne for partitioning.
"""

from __future__ import annotations

import numpy as np

from .. import constants as C
from ..errors import MeshError
from .assembly import Assembly
from .gll import derivative_matrix, gll_points, gll_weights

#: Face base vectors: P_f(a, b) before normalization, with a = tan(alpha),
#: b = tan(beta).  Faces 0-3 ring the equator (centres at lon 0, 90, 180,
#: 270); face 4 is the north cap, face 5 the south cap.
_FACE_XYZ = {
    0: lambda a, b: (np.ones_like(a), a, b),
    1: lambda a, b: (-a, np.ones_like(a), b),
    2: lambda a, b: (-np.ones_like(a), -a, b),
    3: lambda a, b: (a, -np.ones_like(a), b),
    4: lambda a, b: (-b, a, np.ones_like(a)),
    5: lambda a, b: (b, a, -np.ones_like(a)),
}


def _face_point(face: int, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Unit-sphere points for face coordinates (alpha, beta); shape (..., 3)."""
    a, b = np.tan(alpha), np.tan(beta)
    x, y, z = _FACE_XYZ[face](a, b)
    p = np.stack([x, y, z], axis=-1)
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


class CubedSphereMesh:
    """An ne x ne x 6 cubed-sphere spectral-element mesh.

    Attributes (all numpy arrays, ``nelem = 6 * ne**2``):

    - ``face, fi, fj`` — (nelem,) element position: cube face, row, column;
    - ``alpha, beta`` — (nelem, np, np) face coordinates of GLL points;
    - ``xyz`` — (nelem, np, np, 3) unit-sphere Cartesian coordinates;
    - ``lat, lon`` — (nelem, np, np) geographic coordinates [rad];
    - ``metdet`` — (nelem, np, np) sqrt(det g), the area Jacobian;
    - ``met, metinv`` — (nelem, np, np, 2, 2) metric and inverse metric;
    - ``e_cov`` — (nelem, np, np, 3, 2) covariant basis vectors
      (d p/d alpha, d p/d beta) as 3-vectors (unit sphere, multiply by
      ``radius`` for physical length);
    - ``spheremp`` — (nelem, np, np) quadrature weights x Jacobian x
      element size factor: ``sum(f * spheremp)`` integrates f over the
      sphere of radius ``radius``;
    - ``gid`` — (nelem, np, np) global DOF ids (shared on edges/corners);
    - ``assembly`` — the :class:`~repro.mesh.assembly.Assembly` summing
      GLL points per global id (:meth:`dss`); ``assembled_spheremp``,
      ``multiplicity`` — (ngid,) its sums of spheremp and row counts;
    - ``dss_weight`` — (nelem, np, np) spheremp / (assembled spheremp),
      the weights a direct stiffness summation uses to average shared
      points conservatively.
    """

    def __init__(
        self,
        ne: int,
        np_: int = C.NP,
        radius: float = C.EARTH_RADIUS,
        omega: float | None = None,
    ) -> None:
        if ne < 2:
            raise MeshError(f"ne must be >= 2, got {ne}")
        if np_ < 2:
            raise MeshError(f"np must be >= 2, got {np_}")
        self.ne = ne
        self.np = np_
        self.radius = radius
        # Reduced-radius ("small Earth") convention: rotation speeds up
        # by the same factor the radius shrinks, keeping the Rossby
        # number of resolved circulations unchanged (DCMIP X-scaling).
        if omega is None:
            omega = C.EARTH_OMEGA * (C.EARTH_RADIUS / radius)
        self.omega = omega
        self.nelem = 6 * ne * ne

        # Element placement.
        face, fi, fj = np.meshgrid(
            np.arange(6), np.arange(ne), np.arange(ne), indexing="ij"
        )
        self.face = face.reshape(-1)
        self.fi = fi.reshape(-1)  # row index (beta direction)
        self.fj = fj.reshape(-1)  # column index (alpha direction)

        # GLL reference grid.
        self.gll_x = gll_points(np_)
        self.gll_w = gll_weights(np_)
        self.deriv = derivative_matrix(np_)

        # Element width in face coordinates; dalpha/dxi Jacobian factor.
        self.dalpha = (np.pi / 2.0) / ne
        #: d(alpha)/d(xi): reference element [-1,1] -> alpha width.
        self.jac_ref = self.dalpha / 2.0

        # Face coordinates of every GLL point.
        lo = -np.pi / 4.0
        # element corner + (gll+1)/2 * dalpha
        a0 = lo + self.fj[:, None, None] * self.dalpha
        b0 = lo + self.fi[:, None, None] * self.dalpha
        gx = (self.gll_x + 1.0) / 2.0 * self.dalpha
        shape = (self.nelem, np_, np_)
        # alpha varies along j (last axis), beta along i (middle axis).
        self.alpha = np.broadcast_to(a0 + gx[None, None, :], shape).copy()
        self.beta = np.broadcast_to(b0 + gx[None, :, None], shape).copy()

        self._build_geometry()
        self._build_assembly()

    # ------------------------------------------------------------------ geometry

    def _build_geometry(self) -> None:
        ne, np_ = self.ne, self.np
        R = self.radius
        X = np.tan(self.alpha)
        Y = np.tan(self.beta)
        rho2 = 1.0 + X**2 + Y**2
        rho = np.sqrt(rho2)
        cx2 = 1.0 + X**2  # sec^2(alpha) / (1) in tan form
        cy2 = 1.0 + Y**2

        # Metric tensor and inverse (exact equiangular formulas).
        fac = R**2 * cx2 * cy2 / rho2**2
        met = np.empty((self.nelem, np_, np_, 2, 2))
        met[..., 0, 0] = fac * cx2
        met[..., 0, 1] = -fac * X * Y
        met[..., 1, 0] = -fac * X * Y
        met[..., 1, 1] = fac * cy2
        self.met = met
        self.metdet = R**2 * cx2 * cy2 / rho2**1.5

        detg = self.metdet**2
        metinv = np.empty_like(met)
        metinv[..., 0, 0] = met[..., 1, 1] / detg
        metinv[..., 0, 1] = -met[..., 0, 1] / detg
        metinv[..., 1, 0] = -met[..., 1, 0] / detg
        metinv[..., 1, 1] = met[..., 0, 0] / detg
        self.metinv = metinv

        # Unit-sphere positions, one face at a time.
        self.xyz = np.empty((self.nelem, np_, np_, 3))
        for f in range(6):
            sel = self.face == f
            self.xyz[sel] = _face_point(f, self.alpha[sel], self.beta[sel])
        self.lat = np.arcsin(np.clip(self.xyz[..., 2], -1.0, 1.0))
        self.lon = np.mod(np.arctan2(self.xyz[..., 1], self.xyz[..., 0]), 2 * np.pi)

        # Covariant basis vectors d p / d alpha, d p / d beta on the unit
        # sphere: differentiate p = P/|P| with dP/dalpha = sec^2(alpha) dP/da.
        self.e_cov = np.empty((self.nelem, np_, np_, 3, 2))
        for f in range(6):
            sel = self.face == f
            a, b = np.tan(self.alpha[sel]), np.tan(self.beta[sel])
            one = np.ones_like(a)
            zero = np.zeros_like(a)
            P = np.stack(_FACE_XYZ[f](a, b), axis=-1)
            # dP/da and dP/db are constant direction vectors per face.
            dPda = np.stack(_dface(f, "a", one, zero), axis=-1)
            dPdb = np.stack(_dface(f, "b", one, zero), axis=-1)
            norm = np.linalg.norm(P, axis=-1, keepdims=True)
            p = P / norm
            ecov_f = np.empty(p.shape + (2,))
            for k, (dP, tanv) in enumerate(((dPda, a), (dPdb, b))):
                # d(tan)/d(angle) = 1 + tan^2.
                sec2 = (1.0 + tanv**2)[..., None]
                dPd = dP * sec2
                proj = np.sum(p * dPd, axis=-1, keepdims=True)
                ecov_f[..., k] = (dPd - p * proj) / norm
            self.e_cov[sel] = ecov_f
        # Quadrature weights: w_i w_j * metdet * (dalpha/dxi)^2 — but metdet
        # already carries d(area)/d(alpha d beta), and GLL weights integrate
        # over xi in [-1,1]^2, so include the alpha(xi) Jacobian squared.
        w2 = self.gll_w[:, None] * self.gll_w[None, :]
        self.spheremp = self.metdet * w2[None, :, :] * self.jac_ref**2

        # Spherical unit vectors for wind conversion.
        lam, phi = self.lon, self.lat
        self.e_lon = np.stack([-np.sin(lam), np.cos(lam), np.zeros_like(lam)], axis=-1)
        self.e_lat = np.stack(
            [-np.sin(phi) * np.cos(lam), -np.sin(phi) * np.sin(lam), np.cos(phi)],
            axis=-1,
        )

    # ------------------------------------------------------------------ assembly

    def _build_assembly(self) -> None:
        pts = np.round(self.xyz.reshape(-1, 3), decimals=9)
        _, inverse = np.unique(pts, axis=0, return_inverse=True)
        self.gid = inverse.reshape(self.nelem, self.np, self.np)
        self.ngid = int(self.gid.max()) + 1
        #: GLL points -> one slot per global id (see :class:`Assembly`).
        self.assembly = asm = Assembly(self.gid.reshape(-1))
        by_gid = np.argsort(asm.keys)  # slot order -> global id order
        self.assembled_spheremp = asm.accumulate(self.spheremp.reshape(-1))[by_gid]
        self.dss_weight = self.spheremp / self.assembled_spheremp[self.gid]
        self.multiplicity = asm.counts[by_gid]

    # ------------------------------------------------------------------ operations

    def dss(self, field: np.ndarray) -> np.ndarray:
        """Direct stiffness summation: make ``field`` continuous.

        ``field`` has shape (nelem, np, np) or (nelem, np, np, K); shared
        GLL points are replaced by their spheremp-weighted average, the
        conservative projection onto the continuous basis.  Each point's
        copies add as ``f * dss_weight`` in ascending point row
        (``elem * np**2 + ij``) — the order the distributed exchange keeps.
        """
        field = np.asarray(field)
        if field.shape[:3] != (self.nelem, self.np, self.np):
            raise MeshError(
                f"dss expects leading shape {(self.nelem, self.np, self.np)}, "
                f"got {field.shape}"
            )
        flat = field.reshape(self.nelem * self.np * self.np, -1)
        acc = self.assembly.accumulate(flat * self.dss_weight.reshape(-1, 1))
        return acc.take(self.assembly.slot_of, axis=0).reshape(field.shape)

    def global_integral(self, field: np.ndarray) -> float:
        """Integrate a (nelem, np, np) field over the sphere.

        ``spheremp`` gives each copy of a shared point its own element's
        share of the area, so the plain sum integrates a continuous field
        without double counting.
        """
        if field.shape != (self.nelem, self.np, self.np):
            raise MeshError("global_integral expects an (nelem, np, np) field")
        return float(np.sum(field * self.spheremp))

    def surface_area(self) -> float:
        """Total surface area (checks against 4 pi R^2)."""
        return self.global_integral(np.ones((self.nelem, self.np, self.np)))

    # -- wind conversion ----------------------------------------------------

    def contravariant_to_spherical(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Convert contravariant (v1, v2) [1/s] to zonal/meridional wind [m/s].

        ``v`` has shape (nelem, np, np, 2).  Physical velocity is
        ``radius * (v^1 e_alpha + v^2 e_beta)`` projected on the local
        east/north unit vectors.
        """
        vec = self.radius * (
            self.e_cov[..., 0] * v[..., 0:1] + self.e_cov[..., 1] * v[..., 1:2]
        )
        u = np.sum(vec * self.e_lon, axis=-1)
        w = np.sum(vec * self.e_lat, axis=-1)
        return u, w

    def spherical_to_contravariant(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Convert zonal/meridional wind [m/s] to contravariant components.

        Solves the 2x2 system per GLL point; inverse of
        :meth:`contravariant_to_spherical`.
        """
        # Matrix M[k, c] = radius * e_cov[..., c] . e_k.
        m00 = self.radius * np.sum(self.e_cov[..., 0] * self.e_lon, axis=-1)
        m01 = self.radius * np.sum(self.e_cov[..., 1] * self.e_lon, axis=-1)
        m10 = self.radius * np.sum(self.e_cov[..., 0] * self.e_lat, axis=-1)
        m11 = self.radius * np.sum(self.e_cov[..., 1] * self.e_lat, axis=-1)
        det = m00 * m11 - m01 * m10
        v1 = (u * m11 - v * m01) / det
        v2 = (-u * m10 + v * m00) / det
        return np.stack([v1, v2], axis=-1)


def _dface(face: int, wrt: str, one: np.ndarray, zero: np.ndarray):
    """dP/da or dP/db for each face's base mapping (constant vectors)."""
    table = {
        (0, "a"): (zero, one, zero),
        (0, "b"): (zero, zero, one),
        (1, "a"): (-one, zero, zero),
        (1, "b"): (zero, zero, one),
        (2, "a"): (zero, -one, zero),
        (2, "b"): (zero, zero, one),
        (3, "a"): (one, zero, zero),
        (3, "b"): (zero, zero, one),
        (4, "a"): (zero, one, zero),
        (4, "b"): (-one, zero, zero),
        (5, "a"): (zero, one, zero),
        (5, "b"): (one, zero, zero),
    }
    return table[(face, wrt)]
