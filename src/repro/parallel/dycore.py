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
(``"path"`` — required: a meta without it is a driver bug, not a request
for default kernels), and the task receives that geometry as its first
argument.
"""

from __future__ import annotations

import numpy as np

from ..backends.functional_exec import homme_execution
from ..homme.element import ElementState
from ..homme.euler import limit_local, ssp_stage1, ssp_stage2


def sw_stage_task(geom, meta, base_h, base_v, point_h, point_v):
    """One rank's shallow-water RK-stage update (pre-DSS).

    Returns ``(base + dt * tendency)`` for h and v, evaluated with the
    rank's geometry.
    """
    dh, dv = homme_execution(meta["path"]).sw_rhs(point_h, point_v, geom)
    dt = meta["dt"]
    return base_h + dt * dh, base_v + dt * dv


def prim_stage_task(geom, meta, base_v, base_T, base_dp, point_v, point_T, point_dp):
    """One rank's primitive-equation RK-stage update (pre-DSS)."""
    E, L, n = point_T.shape[:3]
    point = ElementState(v=point_v, T=point_T, dp3d=point_dp,
                         qdp=np.zeros((E, 1, L, n, n)))
    dv, dT, ddp = homme_execution(meta["path"]).compute_rhs(point, geom)
    dt = meta["dt"]
    return base_v + dt * dv, base_T + dt * dT, base_dp + dt * ddp


def prim_laplace_task(geom, meta, T, v, dp):
    """One rank's hyperviscosity laplacians for all three fields."""
    ex = homme_execution(meta["path"])
    return (
        ex.laplace_wk(T, geom),
        ex.vlaplace(v, geom),
        ex.laplace_wk(dp, geom),
    )


def prim_euler_stage1_task(geom, meta, qdp, v):
    """A rank's (E_r, Q, L, n, n) tracer stack through SSP-RK2 stage 1 (pre-DSS)."""
    adv = homme_execution(meta["path"]).tracer_tendency(v, geom)
    return (ssp_stage1(qdp, adv, meta["sdt"]),)


def prim_euler_stage2_task(geom, meta, qdp, st1, v):
    """A rank's tracer stack through SSP-RK2 stage 2 (pre-DSS)."""
    adv = homme_execution(meta["path"]).tracer_tendency(v, geom)
    return (ssp_stage2(qdp, st1, adv, meta["sdt"]),)


def prim_limit_task(geom, meta, st2):
    """A rank's elementwise limiter pass: ``(limited, before, after)`` with
    the (E_r, Q, L) per-element masses the driver sums over the mesh, in
    global element order, for the global fixer's scale."""
    return limit_local(st2, geom)
