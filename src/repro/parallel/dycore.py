"""Per-shard task functions: the element-local work of one step recipe.

The step recipes (:mod:`repro.homme.timestep`,
:mod:`repro.homme.shallow_water`) are written once against a layout's
``_fanout(task, meta, per_shard_arrays)``; these are the tasks.  The
one-shard layout calls them in process on the whole-mesh geometry; the
N-shard layout (:mod:`repro.homme.distributed`) runs them once per rank
through its engine, in process or on a worker — the same functions on
every path, so every path executes the same float64 streams.

Geometry never crosses a queue: the engine is built around the shard
:class:`~repro.homme.element.ElementGeometry` objects, a task meta
names its shard's (``"ctx"``, an index) and its execution path
(``"path"`` — required: a meta without it is a driver bug, not a request
for default kernels), and the task receives that geometry as its first
argument.
"""

from __future__ import annotations

import numpy as np

from ..homme.element import ElementState
from ..homme.euler import limit_local, ssp_stage1, ssp_stage2


def _kernels(meta):
    # Imported here: backends.functional_exec imports repro.homme, whose
    # models import these tasks.
    from ..backends.functional_exec import homme_execution

    return homme_execution(meta["path"])


def sw_stage_task(geom, meta, base_h, base_v, point_h, point_v):
    """One shard's shallow-water RK-stage update (pre-DSS).

    Returns ``(base + dt * tendency)`` for h and v, evaluated with the
    shard's geometry.
    """
    dh, dv = _kernels(meta).sw_rhs(point_h, point_v, geom)
    dt = meta["dt"]
    return base_h + dt * dh, base_v + dt * dv


def sw_laplace_task(geom, meta, h, v):
    """One shard's hyperviscosity laplacians of h and v."""
    ex = _kernels(meta)
    return ex.laplace_wk(h, geom), ex.vlaplace(v, geom)


def prim_stage_task(geom, meta, base_v, base_T, base_dp, point_v, point_T, point_dp):
    """One shard's primitive-equation RK-stage update (pre-DSS)."""
    E, L, n = point_T.shape[:3]
    point = ElementState(v=point_v, T=point_T, dp3d=point_dp,
                         qdp=np.zeros((E, 1, L, n, n)))
    dv, dT, ddp = _kernels(meta).compute_rhs(point, geom)
    dt = meta["dt"]
    return base_v + dt * dv, base_T + dt * dT, base_dp + dt * ddp


def prim_laplace_task(geom, meta, T, v, dp):
    """One shard's hyperviscosity laplacians for all three fields."""
    ex = _kernels(meta)
    return (
        ex.laplace_wk(T, geom),
        ex.vlaplace(v, geom),
        ex.laplace_wk(dp, geom),
    )


def prim_euler_stage1_task(geom, meta, qdp, v):
    """A shard's (E_r, Q, L, n, n) tracer stack through SSP-RK2 stage 1 (pre-DSS)."""
    adv = _kernels(meta).tracer_tendency(v, geom)
    return (ssp_stage1(qdp, adv, meta["sdt"]),)


def prim_euler_stage2_task(geom, meta, qdp, st1, v):
    """A shard's tracer stack through SSP-RK2 stage 2 (pre-DSS)."""
    adv = _kernels(meta).tracer_tendency(v, geom)
    return (ssp_stage2(qdp, st1, adv, meta["sdt"]),)


def prim_limit_task(geom, meta, st2):
    """A shard's elementwise limiter pass: ``(limited, before, after)`` with
    the (E_r, Q, L) per-element masses the recipe sums over the mesh, in
    global element order, for the global fixer's scale."""
    return limit_local(st2, geom)
