"""Element geometry views and prognostic state containers.

CAM-SE stores its fields per element as (np x np x nlev) blocks (the
``elem(ie)%state`` derived types the paper's Algorithms 1/2 DMA in and
out).  Here the whole local domain is struct-of-arrays:

- winds are **contravariant** components ``v`` of shape
  (nelem, nlev, np, np, 2) — the natural components for the cubed-sphere
  operators; conversion to zonal/meridional wind happens only at
  initialization and diagnostics;
- ``dp3d`` is the pressure thickness of each floating Lagrangian layer;
- ``qdp`` is tracer mass (q * dp3d), the quantity ``euler_step``
  advects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants as C
from ..config import ModelConfig
from ..errors import KernelError
from ..mesh.cubed_sphere import CubedSphereMesh
from . import tensors as tensors_mod


class ElementGeometry:
    """Per-element geometric data for a set of elements (a rank's subdomain).

    Wraps slices of the mesh arrays plus the spectral machinery, with
    the Coriolis parameter precomputed.  ``elem_ids=None`` selects the
    whole mesh (the serial dycore).
    """

    def __init__(self, mesh: CubedSphereMesh, elem_ids: np.ndarray | None = None) -> None:
        self.mesh = mesh
        if elem_ids is None:
            self.elem_ids = np.arange(mesh.nelem)
        else:
            self.elem_ids = np.asarray(elem_ids, dtype=np.int64)
        sel = self.elem_ids
        self.nelem = len(sel)
        self.np = mesh.np
        self.metdet = mesh.metdet[sel]
        self.met = mesh.met[sel]
        self.metinv = mesh.metinv[sel]
        self.spheremp = mesh.spheremp[sel]
        self.dss_weight = mesh.dss_weight[sel]
        self.lat = mesh.lat[sel]
        self.lon = mesh.lon[sel]
        self.gid = mesh.gid[sel]
        self.D = mesh.deriv
        self.jac = mesh.jac_ref
        self.radius = mesh.radius
        self.e_cov = mesh.e_cov[sel]
        #: Coriolis parameter f = 2 Omega sin(lat), shape (nelem, np, np);
        #: Omega follows the mesh (scaled on reduced-radius spheres).
        omega = getattr(mesh, "omega", C.EARTH_OMEGA)
        self.fcor = 2.0 * omega * np.sin(self.lat)
        self._tensors: tensors_mod.OperatorTensors | None = None

    # -- memoized operator tensors (batched hot path) --------------------------

    @property
    def tensors(self) -> "tensors_mod.OperatorTensors":
        """The memoized :class:`~repro.homme.tensors.OperatorTensors`.

        Rebuilt automatically whenever the fingerprint of the source
        geometry arrays changes (see :mod:`repro.homme.tensors` for the
        invalidation rule), so in-place mutation of ``metdet``/``met``/
        ``metinv``/``spheremp`` never serves stale tensors.
        """
        token = tensors_mod.geometry_fingerprint(self)
        cached = self._tensors
        if cached is None or cached.token != token:
            self._tensors = tensors_mod.build_tensors(self)
        return self._tensors

    def invalidate_tensors(self) -> None:
        """Drop the memoized operator tensors."""
        self._tensors = None

    def dss(self, field: np.ndarray) -> np.ndarray:
        """Serial DSS through the full mesh (only valid for whole-mesh views)."""
        if self.nelem != self.mesh.nelem:
            raise KernelError(
                "serial DSS requires the whole mesh; rank-local domains use "
                "bndry_exchangev"
            )
        # Fields arrive as (E, L, np, np[, K]); mesh.dss wants (E, np, np, K).
        f = np.asarray(field)
        if f.ndim == 3:
            return self.mesh.dss(f)
        if f.ndim == 4:  # (E, L, np, np) -> levels as trailing axis
            out = self.mesh.dss(np.moveaxis(f, 1, -1))
            return np.moveaxis(out, -1, 1)
        if f.ndim == 5:  # (E, L, np, np, K)
            E, L, n, _, K = f.shape
            merged = np.moveaxis(f, 1, -2).reshape(E, n, n, L * K)
            out = self.mesh.dss(merged).reshape(E, n, n, L, K)
            return np.moveaxis(out, -2, 1)
        raise KernelError(f"dss: unsupported field rank {f.ndim}")

    def dss_vector(self, v: np.ndarray) -> np.ndarray:
        """DSS a **contravariant vector** field (E, [L,] np, np, 2).

        Contravariant components live in each face's coordinate frame,
        so they cannot be averaged directly across cube edges (the
        frames differ).  The vector is converted to its global Cartesian
        tangent representation ``w = radius (v^1 e_1 + v^2 e_2)`` —
        frame-free and pole-singularity-free — DSS'd componentwise, and
        projected back via ``v^i = metinv^{ij} (e_j . w) / radius``.
        (HOMME achieves the same by exchanging lat-lon components; the
        Cartesian form avoids the polar special cases.)
        """
        v = np.asarray(v)
        if v.shape[-1] != 2:
            raise KernelError("dss_vector expects trailing contravariant axis of 2")
        has_lev = v.ndim == 5
        e = self.e_cov  # (E, n, n, 3, 2)
        if has_lev:
            e_b = e[:, None]
        elif v.ndim == 4:
            e_b = e
        else:
            raise KernelError(f"dss_vector: unsupported field rank {v.ndim}")
        w = self.radius * np.einsum("...xc,...c->...x", e_b, v)
        # (E, n, n, 3) goes straight to the mesh; (E, L, n, n, 3) through
        # the level-aware path.
        w = self.mesh.dss(w) if not has_lev else self.dss(w)
        cov = self.radius * np.einsum("...xc,...x->...c", e_b, w)
        metinv_b = self.metinv[:, None] if has_lev else self.metinv
        return np.einsum("...ij,...j->...i", metinv_b, cov)


@dataclass
class ElementState:
    """Prognostic state on a set of elements.

    Shapes (E = elements, L = levels, n = np, Q = tracers):

    - ``v``    — (E, L, n, n, 2) contravariant wind [1/s];
    - ``T``    — (E, L, n, n) temperature [K];
    - ``dp3d`` — (E, L, n, n) layer pressure thickness [Pa];
    - ``qdp``  — (E, Q, L, n, n) tracer mass [Pa * kg/kg].
    """

    v: np.ndarray
    T: np.ndarray
    dp3d: np.ndarray
    qdp: np.ndarray

    @classmethod
    def zeros(cls, nelem: int, nlev: int, np_: int, qsize: int) -> "ElementState":
        """An all-zero state with consistent shapes."""
        return cls(
            v=np.zeros((nelem, nlev, np_, np_, 2)),
            T=np.zeros((nelem, nlev, np_, np_)),
            dp3d=np.zeros((nelem, nlev, np_, np_)),
            qdp=np.zeros((nelem, qsize, nlev, np_, np_)),
        )

    @classmethod
    def isothermal_rest(
        cls,
        geom: ElementGeometry,
        cfg: ModelConfig,
        T0: float = 300.0,
        ps0: float = C.P0,
    ) -> "ElementState":
        """An isothermal resting atmosphere on uniform sigma levels."""
        state = cls.zeros(geom.nelem, cfg.nlev, geom.np, cfg.qsize)
        state.T[:] = T0
        dsigma = 1.0 / cfg.nlev
        state.dp3d[:] = dsigma * ps0
        return state

    # -- shape checks & arithmetic helpers (used by RK stages) -----------------

    def check_consistent(self) -> None:
        """Raise KernelError if array shapes disagree."""
        E, L, n = self.T.shape[0], self.T.shape[1], self.T.shape[2]
        if self.v.shape != (E, L, n, n, 2):
            raise KernelError(f"v shape {self.v.shape} inconsistent with T {self.T.shape}")
        if self.dp3d.shape != (E, L, n, n):
            raise KernelError(f"dp3d shape {self.dp3d.shape} inconsistent")
        if self.qdp.shape[0] != E or self.qdp.shape[2:] != (L, n, n):
            raise KernelError(f"qdp shape {self.qdp.shape} inconsistent")

    def copy(self) -> "ElementState":
        """Deep copy of all prognostic arrays."""
        return ElementState(
            self.v.copy(), self.T.copy(), self.dp3d.copy(), self.qdp.copy()
        )

    @property
    def nlev(self) -> int:
        return self.T.shape[1]

    @property
    def qsize(self) -> int:
        return self.qdp.shape[1]

    def ps(self, ptop: float = 0.0) -> np.ndarray:
        """Surface pressure: ptop + sum of layer thicknesses; (E, n, n)."""
        return ptop + self.dp3d.sum(axis=1)

    def q(self) -> np.ndarray:
        """Tracer mixing ratios qdp / dp3d; (E, Q, L, n, n)."""
        return self.qdp / self.dp3d[:, None]
