"""Per-rank task functions that put the distributed dycore on real cores.

The element-local tendency / laplacian / tracer-advection work of one
simulated rank, packaged as module-level functions the engine can ship
to a worker.  The driver (``repro.homme.distributed``) routes *both*
the serial and the parallel path through these same functions, so the
two modes execute identical float64 streams — bitwise identity by
construction.

Geometry never crosses a queue: the engine is built around the shard
:class:`~repro.homme.element.ElementGeometry` objects, a task meta
names its shard's (``"ctx"``, an index) and its execution path
(``"path"``), and the task receives that geometry as its first argument.
"""

from __future__ import annotations

import numpy as np

from ..backends.functional_exec import homme_execution


def _path_kernels(meta):
    """The kernel set a task meta names in ``meta["path"]`` — required:
    a meta without it is a driver bug, not a request for some default
    kernels."""
    return homme_execution(meta["path"])


def sw_stage_task(geom, meta, base_h, base_v, point_h, point_v):
    """One rank's shallow-water RK-stage update (pre-DSS).

    Returns ``(base + dt * tendency)`` for h and v, evaluated with the
    rank's geometry.
    """
    dh, dv = _path_kernels(meta).sw_rhs(point_h, point_v, geom)
    dt = meta["dt"]
    return base_h + dt * dh, base_v + dt * dv


def prim_stage_task(geom, meta, base_v, base_T, base_dp, point_v, point_T, point_dp):
    """One rank's primitive-equation RK-stage update (pre-DSS)."""
    from ..homme.element import ElementState

    E, L, n = point_T.shape[0], point_T.shape[1], point_T.shape[2]
    point = ElementState(
        v=point_v, T=point_T, dp3d=point_dp, qdp=np.zeros((E, 1, L, n, n))
    )
    dv, dT, ddp = _path_kernels(meta).compute_rhs(point, geom)
    dt = meta["dt"]
    return base_v + dt * dv, base_T + dt * dT, base_dp + dt * ddp


def prim_laplace_task(geom, meta, T, v, dp):
    """One rank's hyperviscosity laplacians for all three fields."""
    ex = _path_kernels(meta)
    return (
        ex.laplace_wk(T, geom),
        ex.vlaplace(v, geom),
        ex.laplace_wk(dp, geom),
    )


def prim_euler_stage1_task(geom, meta, qdp_q, v):
    """Tracer SSP-RK2 stage 1 (pre-DSS): qdp + sdt * advect(qdp)."""
    advect = _path_kernels(meta).advect_qdp
    return (qdp_q + meta["sdt"] * advect(qdp_q, v, geom),)


def prim_euler_stage2_task(geom, meta, qdp_q, st1, v):
    """Tracer SSP-RK2 stage 2 (pre-DSS): 0.5 (qdp + st1 + sdt advect(st1))."""
    advect = _path_kernels(meta).advect_qdp
    return (0.5 * (qdp_q + st1 + meta["sdt"] * advect(st1, v, geom)),)


def prim_limit_task(geom, meta, st2):
    """One rank's limiter pass plus its per-element masses.

    Returns ``(limited, before, after)`` with the masses (E_r, L); the
    driver sums them over the mesh in global element order and applies
    the global fixer scale.
    """
    from ..homme.euler import element_mass, limit_qdp

    limited = limit_qdp(st2, geom, global_fixer=False)
    return limited, element_mass(st2, geom), element_mass(limited, geom)
