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

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import constants as C
from ..config import ModelConfig
from ..errors import KernelError
from ..mesh.cubed_sphere import CubedSphereMesh
from . import tensors as tensors_mod
from .tensors import frozen


def check_dt(dt: float) -> float:
    """``dt`` itself; :class:`KernelError` unless it is finite and > 0."""
    if not (np.isfinite(dt) and dt > 0):
        raise KernelError(f"time step dt must be finite and > 0, got {dt!r}")
    return dt


#: The prognostic fields a valid state holds > 0 everywhere: each
#: equation set's layer thickness.
POSITIVE_FIELDS = ("dp3d", "h")


def bad_values(name: str, a: np.ndarray) -> tuple[int, str]:
    """How many values of prognostic field ``name``'s array ``a`` make a
    state invalid, and by which rule: ``"non-finite"`` (every field,
    checked first) or ``"non-positive"`` (:data:`POSITIVE_FIELDS`); a
    count of 0 when none do.  The one definition of a valid state:
    initial states (:func:`~repro.homme.timestep.checked_state`),
    snapshots (:meth:`~repro.homme.timestep._Layout.restore_snapshot`) and
    :class:`~repro.resilience.validator.StateValidator` all ask it."""
    n = a.size - int(np.count_nonzero(np.isfinite(a)))
    if n or name not in POSITIVE_FIELDS:
        return n, "non-finite"
    return int(np.count_nonzero(a <= 0)), "non-positive"


def check_steps(n: int, error: type[Exception] = KernelError) -> int:
    """``n`` itself; ``error`` unless it is a whole number >= 0 (a bool
    is not a step count)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise error(f"step count must be a whole number >= 0, got {n!r}")
    return n


def levels_last(f: np.ndarray) -> np.ndarray:
    """(E, L, n, n[, K]) -> (E, n, n, L*K): the trailing-axis layout a DSS sums."""
    f = np.moveaxis(f, 1, 3)
    return f.reshape(f.shape[:3] + (-1,))


def levels_first(f: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`levels_last`: a view of ``f`` with the level-first ``shape``."""
    E, L, n, m = shape[:4]
    return np.moveaxis(f.reshape((E, n, m, L) + tuple(shape[4:])), 3, 1)


def _component_planes(packed: np.ndarray) -> np.ndarray:
    """(E, n, n, a, b) -> contiguous (a, b, E, n, n) component planes."""
    return np.ascontiguousarray(np.moveaxis(packed, (-2, -1), (0, 1)))


def _split(f: np.ndarray) -> list[np.ndarray]:
    """The trailing-axis components of ``f`` gathered into contiguous planes."""
    return [np.ascontiguousarray(f[..., c]) for c in range(f.shape[-1])]


class ElementGeometry:
    """Per-element geometric data for a set of elements (a rank's subdomain).

    The constructor copies the mesh arrays' rows of ``elem_ids`` (in that
    order) plus the spectral machinery, with the Coriolis parameter
    precomputed; ``elem_ids=None`` selects the whole mesh (the serial
    dycore).  :meth:`rows` cuts a contiguous range of elements out of a
    geometry as views of its memory — how a layout's ranks and element
    blocks share one geometry instead of holding copies.

    Every array is read-only from construction: a geometry is shared —
    by the kernels' memoized operands, by forked workers — so an
    in-place write raises ``ValueError`` at the write instead of leaving
    a derived plane stale.  A different geometry is a new object.
    """

    #: A layout's shard geometry carries the shard's share of the exchange
    #: plan (:class:`~repro.homme.bndry.ShardPlan`), what its DSS tasks run.
    dss_plan = None

    def __init__(self, mesh: CubedSphereMesh, elem_ids: np.ndarray | None = None) -> None:
        self.mesh = mesh
        whole = np.arange(mesh.nelem)
        self.elem_ids = whole if elem_ids is None else np.asarray(elem_ids, dtype=np.int64)
        #: Row e is mesh element e, so the serial DSS applies.
        self._whole_mesh = np.array_equal(self.elem_ids, whole)
        sel = self.elem_ids
        self.nelem = len(sel)
        self.np = mesh.np
        # Fancy indexing copies, and D is a view: freezing these flips no
        # flag of the mesh's own arrays.
        self.metdet = frozen(mesh.metdet[sel])
        self.met = frozen(mesh.met[sel])
        #: ``metinv_planes[i, k]`` is the contiguous (nelem, np, np) plane
        #: of g^ik; :attr:`metinv` is the packed view of the same memory.
        self.metinv_planes = frozen(_component_planes(mesh.metinv[sel]))
        self.spheremp = frozen(mesh.spheremp[sel])
        self.lat = frozen(mesh.lat[sel])
        self.lon = frozen(mesh.lon[sel])
        self.D = frozen(mesh.deriv.view())
        self.jac = mesh.jac_ref
        self.radius = mesh.radius
        #: ``e_cov_planes[j, i]``: Cartesian component j of e_i, likewise.
        self.e_cov_planes = frozen(_component_planes(mesh.e_cov[sel]))
        #: Coriolis parameter f = 2 Omega sin(lat), shape (nelem, np, np);
        #: Omega follows the mesh (scaled on reduced-radius spheres).
        omega = getattr(mesh, "omega", C.EARTH_OMEGA)
        self.fcor = frozen(2.0 * omega * np.sin(self.lat))

    def rows(self, lo: int, hi: int) -> "ElementGeometry":
        """Elements ``lo..hi-1`` of this geometry as a geometry of their own.

        Every array is a view of this one's rows (the component planes
        are cut along their element axis), so nothing is copied and the
        views are read-only like their base; the operator tensors are
        the view's own, built on first use.
        """
        g = object.__new__(type(self))
        g.mesh, g.np, g.D, g.jac, g.radius = (
            self.mesh, self.np, self.D, self.jac, self.radius)
        g.elem_ids = self.elem_ids[lo:hi]
        g.nelem = len(g.elem_ids)
        g._whole_mesh = np.array_equal(g.elem_ids, np.arange(self.mesh.nelem))
        for name in ("metdet", "met", "spheremp", "lat", "lon", "fcor"):
            setattr(g, name, getattr(self, name)[lo:hi])
        g.metinv_planes = self.metinv_planes[:, :, lo:hi]
        g.e_cov_planes = self.e_cov_planes[:, :, lo:hi]
        return g

    @property
    def metinv(self) -> np.ndarray:
        """Inverse metric (nelem, np, np, 2, 2): a view of :attr:`metinv_planes`."""
        return np.moveaxis(self.metinv_planes, (0, 1), (-2, -1))

    @property
    def e_cov(self) -> np.ndarray:
        """Covariant basis (nelem, np, np, 3, 2): a view of :attr:`e_cov_planes`."""
        return np.moveaxis(self.e_cov_planes, (0, 1), (-2, -1))

    @cached_property
    def tensors(self) -> "tensors_mod.OperatorTensors":
        """The :class:`~repro.homme.tensors.OperatorTensors` of this
        geometry, built on first use and kept: nothing they derive from
        can change."""
        return tensors_mod.build_tensors(self)

    def _mesh_dss(self, field: np.ndarray) -> np.ndarray:
        if not self._whole_mesh:
            raise KernelError(
                "serial DSS requires the whole mesh; rank-local domains use "
                "bndry_exchangev"
            )
        return self.mesh.dss(field)

    def dss(self, field: np.ndarray) -> np.ndarray:
        """Serial DSS through the full mesh (only valid for whole-mesh views).

        ``field`` is (E, np, np), or level-carrying (E, L, np, np[, K]).
        """
        f = np.asarray(field)
        if f.ndim == 3:
            return self._mesh_dss(f)
        if f.ndim in (4, 5):
            return levels_first(self._mesh_dss(levels_last(f)), f.shape)
        raise KernelError(f"dss: unsupported field rank {f.ndim}")

    def to_cartesian_planes(self, v: np.ndarray) -> list[np.ndarray]:
        """Contravariant (E, [L,] np, np, 2) -> the three Cartesian tangent
        component planes (E, [L,] np, np), each C-contiguous.

        ``w_j = radius (v^1 e_1 + v^2 e_2)_j``, each plane summed from
        +0.0 (an all ``-0.0`` sum comes out ``+0.0``) in the one
        operation order the trajectories pin.
        """
        e = self.e_cov_planes[:, :, :, None] if v.ndim == 5 else self.e_cov_planes
        v0, v1 = _split(v)
        planes = []
        for j in range(3):
            wj = e[j, 0] * v0
            wj += 0.0
            wj += e[j, 1] * v1
            wj *= self.radius
            planes.append(wj)
        return planes

    def from_cartesian_planes(self, planes, out: np.ndarray) -> None:
        """Inverse of :meth:`to_cartesian_planes`, written into the
        (E, [L,] np, np, 2) ``out``: ``v^i = metinv^{ij} radius (e_j . w)``.

        Same fixed order, whatever the planes' strides.
        """
        w0, w1, w2 = planes
        e, metinv = self.e_cov_planes, self.metinv_planes
        if w0.ndim == 4:
            e, metinv = e[:, :, :, None], metinv[:, :, :, None]
        cov = []
        for i in range(2):
            c = e[0, i] * w0
            c += 0.0
            c += e[1, i] * w1
            c += e[2, i] * w2
            c *= self.radius
            cov.append(c)
        for k in range(2):
            vk = metinv[k, 0] * cov[0]
            vk += 0.0
            np.add(vk, metinv[k, 1] * cov[1], out=out[..., k])


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
