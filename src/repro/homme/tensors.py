"""Cached operator tensors for the batched spectral-element hot path.

The differential operators of :mod:`repro.homme.operators` need, on
every call, a family of small derived arrays: the transposed GLL
derivative matrix, reciprocals of the Jacobian and metric determinant,
the unpacked components of the metric tensor and its inverse, and the
weak-form quadrature factor ``metdet * w_p w_q * J^2``.  Rebuilding
them per call is pure overhead — they depend only on the mesh geometry,
which is fixed for the life of a run.  This module memoizes them as an
:class:`OperatorTensors` bundle on the element container
(:class:`~repro.homme.element.ElementGeometry.tensors`), the
Python-level analogue of the paper's Athread redesign keeping shared
metric tiles LDM-resident across the tracer loop (Section 7.3,
Algorithm 2) instead of re-reading them every iteration.

No invalidation rule (DESIGN.md §9): the geometry arrays a bundle is
derived from are read-only from construction, and so is every plane
here — the bundles' own fields and the memoized ``bshape`` expansions —
so a cached plane cannot go stale; a write raises ``ValueError`` at the
write.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FusedOperands",
    "OperatorTensors",
    "build_tensors",
    "frozen",
]


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, flagged read-only (views taken from it are too)."""
    a.flags.writeable = False
    return a


def _freeze_planes(bundle) -> None:
    """Flag every ndarray field of a dataclass bundle read-only."""
    for f in dataclasses.fields(bundle):
        v = getattr(bundle, f.name)
        if isinstance(v, np.ndarray):
            frozen(v)


@dataclass(frozen=True)
class OperatorTensors:
    """Memoized per-mesh operator tensors, every plane read-only.

    Components are unpacked from their (..., 2, 2) packing so the
    operators run on contiguous (E, np, np) planes with plain
    multiplies — no trailing-axis stride games, no divisions in the
    hot loop.
    """

    #: GLL derivative matrix (np, np) and its transpose (C-contiguous)
    D: np.ndarray
    Dt: np.ndarray
    #: reference-element Jacobian (scalar) and its reciprocal
    jac: float
    inv_jac: float
    #: metric determinant sqrt(g) and reciprocal, (E, np, np)
    metdet: np.ndarray
    inv_metdet: np.ndarray
    #: covariant metric components g_ij (symmetric), (E, np, np)
    met00: np.ndarray
    met01: np.ndarray
    met11: np.ndarray
    #: contravariant metric components g^ij (symmetric), (E, np, np):
    #: the geometry's own ``metinv_planes``, not copies
    metinv00: np.ndarray
    metinv01: np.ndarray
    metinv11: np.ndarray
    #: spheremp and reciprocal, (E, np, np)
    spheremp: np.ndarray
    inv_spheremp: np.ndarray
    #: weak-form quadrature factor metdet * (w_p w_q) * J^2, (E, np, np)
    wk_fac: np.ndarray
    #: broadcast-view cache keyed by (array id, extra middle axes)
    _bcache: dict = field(default_factory=dict, repr=False, compare=False)
    #: the fused contraction-operand bundle, built on first use
    _fused: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        _freeze_planes(self)

    def fused(self) -> "FusedOperands":
        """Memoized fused contraction operands.

        The folded planes (``wk_fac * metinv * inv_jac`` etc.) depend
        only on the geometry this bundle was built from, so they are
        assembled once per mesh and cached here.  Every plane is made
        C-contiguous where an input may be a view (DESIGN.md §14.1: a
        strided operand costs ~7x per elementwise op).
        """
        if not self._fused:
            contig = np.ascontiguousarray
            ij = self.inv_jac
            eye = np.eye(self.D.shape[0])
            self._fused.append(FusedOperands(
                D=contig(self.D),
                Dt=contig(self.Dt),
                inv_jac=float(ij),
                mi00j=contig(self.metinv00 * ij),
                mi01j=contig(self.metinv01 * ij),
                mi11j=contig(self.metinv11 * ij),
                wk00=contig(self.wk_fac * self.metinv00 * ij),
                wk01=contig(self.wk_fac * self.metinv01 * ij),
                wk11=contig(self.wk_fac * self.metinv11 * ij),
                wk_out=contig(-(ij * self.inv_spheremp)),
                met00=contig(self.met00),
                met01=contig(self.met01),
                met11=contig(self.met11),
                metdet=contig(self.metdet),
                inv_metdet=contig(self.inv_metdet),
                imdj=contig(self.inv_metdet * ij),
                kda=contig(np.kron(eye, self.Dt)),
                kdb=contig(np.kron(self.Dt, eye)),
                kwa=contig(np.kron(eye, self.D)),
                kwb=contig(np.kron(self.D, eye)),
            ))
        return self._fused[0]

    def bshape(self, geom_arr: np.ndarray, scalar_ref: np.ndarray) -> np.ndarray:
        """Broadcast a (E, np, np) tensor against a field (E, ..., np, np).

        Returns a reshaped *view* with singleton middle axes inserted
        after E; views are memoized so repeated calls in a kernel cost
        one dict lookup.
        """
        extra = scalar_ref.ndim - 3
        if extra <= 0:
            return geom_arr
        key = (id(geom_arr), extra)
        view = self._bcache.get(key)
        if view is None:
            shape = (geom_arr.shape[0],) + (1,) * extra + geom_arr.shape[1:]
            view = geom_arr.reshape(shape)
            self._bcache[key] = view
        return view

    @property
    def nbytes(self) -> int:
        """Resident bytes of this bundle's unique arrays.

        Counts the operator planes plus the fused bundle once built;
        the ``_bcache`` reshape views alias arrays already counted and
        are excluded.  This is the per-shard footprint the sharded
        ownership accounting sums per worker.
        """
        planes = (
            self.D, self.Dt, self.metdet, self.inv_metdet,
            self.met00, self.met01, self.met11,
            self.metinv00, self.metinv01, self.metinv11,
            self.spheremp, self.inv_spheremp, self.wk_fac,
        )
        return sum(int(p.nbytes) for p in planes) + sum(
            f.nbytes for f in self._fused
        )


def build_tensors(geom) -> OperatorTensors:
    """Derive the full tensor bundle from an element geometry."""
    D = np.ascontiguousarray(geom.D)
    met = geom.met
    metinv = geom.metinv_planes
    metdet = geom.metdet
    spheremp = geom.spheremp
    jac = float(geom.jac)
    w = geom.mesh.gll_w
    wpwq = w[:, None] * w[None, :]
    return OperatorTensors(
        D=D,
        Dt=np.ascontiguousarray(D.T),
        jac=jac,
        inv_jac=1.0 / jac,
        metdet=metdet,
        inv_metdet=1.0 / metdet,
        met00=np.ascontiguousarray(met[..., 0, 0]),
        met01=np.ascontiguousarray(met[..., 0, 1]),
        met11=np.ascontiguousarray(met[..., 1, 1]),
        metinv00=metinv[0, 0],
        metinv01=metinv[0, 1],
        metinv11=metinv[1, 1],
        spheremp=spheremp,
        inv_spheremp=1.0 / spheremp,
        wk_fac=metdet * wpwq[None, :, :] * jac**2,
    )


@dataclass(frozen=True)
class FusedOperands:
    """Preassembled contraction operands for :mod:`repro.homme.fused`.

    Where the batched operators apply the Jacobian, metric and
    quadrature factors as separate elementwise passes after each
    derivative matmul, the fused kernels contract against planes with
    those factors **folded in once per mesh** (DESIGN.md §14):

    - ``mi__j``  = ``metinv__ * inv_jac`` — contravariant gradient in
      one multiply-add per component;
    - ``wk__``   = ``wk_fac * metinv__ * inv_jac`` — the whole first
      pass of the weak Laplacian;
    - ``wk_out`` = ``-(inv_jac * inv_spheremp)`` — its output scaling;
    - ``imdj``   = ``inv_metdet * inv_jac`` — divergence / vorticity
      normalization, and the analytic ``k x grad(zeta)`` factor
      (``g . g^{-1}`` cancels exactly, so the vector Laplacian never
      round-trips through the metric).

    Every plane is float64 and C-contiguous.
    """

    #: GLL derivative matrix and transpose
    D: np.ndarray
    Dt: np.ndarray
    #: reciprocal reference-element Jacobian (python float: scalar
    #: multiplies never promote the arrays under NEP 50)
    inv_jac: float
    #: metinv * inv_jac planes (contravariant gradient), (E, np, np)
    mi00j: np.ndarray
    mi01j: np.ndarray
    mi11j: np.ndarray
    #: wk_fac * metinv * inv_jac planes (weak-Laplacian first pass)
    wk00: np.ndarray
    wk01: np.ndarray
    wk11: np.ndarray
    #: -(inv_jac * inv_spheremp) (weak-Laplacian output scaling)
    wk_out: np.ndarray
    #: covariant metric planes g_ij
    met00: np.ndarray
    met01: np.ndarray
    met11: np.ndarray
    #: sqrt(g), 1/sqrt(g) and inv_metdet * inv_jac
    metdet: np.ndarray
    inv_metdet: np.ndarray
    imdj: np.ndarray
    #: Kronecker-lifted GLL derivative operators, (np^2, np^2).  A GLL
    #: derivative is a tiny (np, np) matmul batched over thousands of
    #: planes, which numpy executes as a slow per-plane loop; lifting
    #: the operator to the flattened (i, j) point index turns each
    #: derivative into ONE 2D BLAS GEMM over all elements and levels
    #: (``X.reshape(-1, np^2) @ k__``), ~4x faster at bench shapes.
    #: kda: d/dalpha (X @ Dt); kdb: d/dbeta (D @ X);
    #: kwa: weak-form alpha (X @ D); kwb: weak-form beta (Dt @ X).
    kda: np.ndarray
    kdb: np.ndarray
    kwa: np.ndarray
    kwb: np.ndarray
    #: expanded-plane cache keyed by (array id, target shape)
    _bcache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        _freeze_planes(self)

    def _gemm(self, X: np.ndarray, k: np.ndarray) -> np.ndarray:
        """``X`` (..., np, np) against a lifted operator as one 2D GEMM.

        GEMM rows do not depend on how many rows ride along, so a shard
        gets the bits the whole mesh gets — but a single row would take
        BLAS's vector-matrix path, so it goes in twice.
        """
        rows = X.reshape(-1, k.shape[0])
        if len(rows) == 1:
            return np.matmul(np.concatenate([rows, rows]), k)[:1].reshape(X.shape)
        return np.matmul(rows, k).reshape(X.shape)

    def da(self, X: np.ndarray) -> np.ndarray:
        """d/dalpha (``X @ Dt``) of (..., np, np)."""
        return self._gemm(X, self.kda)

    def db(self, X: np.ndarray) -> np.ndarray:
        """d/dbeta (``D @ X``) of (..., np, np)."""
        return self._gemm(X, self.kdb)

    def wa(self, X: np.ndarray) -> np.ndarray:
        """Weak-form alpha transpose (``X @ D``)."""
        return self._gemm(X, self.kwa)

    def wb(self, X: np.ndarray) -> np.ndarray:
        """Weak-form beta transpose (``Dt @ X``)."""
        return self._gemm(X, self.kwb)

    def bshape(self, geom_arr: np.ndarray, scalar_ref: np.ndarray) -> np.ndarray:
        """Expand a (E, np, np) plane to ``scalar_ref``'s shape; memoized.

        Unlike the batched path's singleton-axis broadcast views, the
        fused kernels contract against **materialized contiguous**
        planes: a strided ``(E, 1, np, np)`` operand forces every
        elementwise op onto numpy's slow per-stride inner loop (~7x the
        contiguous cost at the bench shapes), which would eat the whole
        fusion win.  The expansion is cached per (plane, target shape)
        — a handful of level-replicated copies per mesh — and, being
        shared across calls, read-only.  The key is the plane's ``id``,
        so only planes that live as long as the bundle may be passed:
        its own fields and the geometry's ``fcor``.
        """
        extra = scalar_ref.ndim - 3
        if extra <= 0:
            return geom_arr
        target = (geom_arr.shape[0],) + scalar_ref.shape[1:-2] + geom_arr.shape[1:]
        key = (id(geom_arr), target)
        entry = self._bcache.get(key)
        if entry is None:
            shape = (geom_arr.shape[0],) + (1,) * extra + geom_arr.shape[1:]
            out = frozen(np.ascontiguousarray(
                np.broadcast_to(geom_arr.reshape(shape), target)))
            # Pin the source array: the key is its id(), which could
            # otherwise be recycled after garbage collection.
            entry = (geom_arr, out)
            self._bcache[key] = entry
        return entry[1]

    @property
    def nbytes(self) -> int:
        """Resident bytes of this bundle's unique arrays.

        Counts every ndarray field plus the materialized expansion
        cache (its ``out`` copies are real memory; the pinned sources
        alias planes already counted and are skipped via ``id``).
        """
        seen: set[int] = set()
        total = 0
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray) and id(v) not in seen:
                seen.add(id(v))
                total += int(v.nbytes)
        for _src, out in self._bcache.values():
            if id(out) not in seen:
                seen.add(id(out))
                total += int(out.nbytes)
        return total
