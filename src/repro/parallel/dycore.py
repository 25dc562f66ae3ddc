"""Per-rank task functions that put the distributed dycore on real cores.

The element-local tendency / laplacian / tracer-advection work of one
simulated rank, packaged as module-level functions the engine can ship
to a worker.  The driver (``repro.homme.distributed``) routes *both*
the serial and the parallel path through these same functions, so the
two modes execute identical float64 streams — bitwise identity by
construction.

Geometry never crosses a queue: the driver registers each shard's
:class:`~repro.homme.element.ElementGeometry` in the fork-inherited
context registry *before* the pool starts, and a task meta names its
shard's entry (``"ctx"``) and its execution path (``"path"``).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..backends.functional_exec import homme_execution
from .engine import get_context

_ctx_counter = itertools.count()


def fresh_context_key(prefix: str) -> str:
    """A process-unique context key (ids recycle; the counter doesn't)."""
    return f"{prefix}:{next(_ctx_counter)}"


def shard_context_key(base: str, shard: int) -> str:
    """The per-shard context key derived from a model's base key."""
    return f"{base}/s{shard}"


def _task_geom(meta):
    """The one :class:`~repro.homme.element.ElementGeometry` of the
    shard a task computes on — the per-shard context entry
    ``meta["ctx"]`` names, the only geometry that worker ever touches."""
    return get_context(meta["ctx"])


def _path_kernels(meta):
    """The kernel set a task meta names in ``meta["path"]`` — required,
    like ``"ctx"``: a meta without it is a driver bug, not a request
    for some default kernels."""
    return homme_execution(meta["path"])


def sw_stage_task(meta, base_h, base_v, point_h, point_v):
    """One rank's shallow-water RK-stage update (pre-DSS).

    Returns ``(base + dt * tendency)`` for h and v, evaluated with the
    rank's geometry from the registered context.
    """
    geom = _task_geom(meta)
    dh, dv = _path_kernels(meta).sw_rhs(point_h, point_v, geom)
    dt = meta["dt"]
    return base_h + dt * dh, base_v + dt * dv


def prim_stage_task(meta, base_v, base_T, base_dp, point_v, point_T, point_dp):
    """One rank's primitive-equation RK-stage update (pre-DSS)."""
    from ..homme.element import ElementState

    geom = _task_geom(meta)
    E, L, n = point_T.shape[0], point_T.shape[1], point_T.shape[2]
    point = ElementState(
        v=point_v, T=point_T, dp3d=point_dp, qdp=np.zeros((E, 1, L, n, n))
    )
    dv, dT, ddp = _path_kernels(meta).compute_rhs(point, geom)
    dt = meta["dt"]
    return base_v + dt * dv, base_T + dt * dT, base_dp + dt * ddp


def prim_laplace_task(meta, T, v, dp):
    """One rank's hyperviscosity laplacians for all three fields."""
    geom = _task_geom(meta)
    ex = _path_kernels(meta)
    return (
        ex.laplace_wk(T, geom),
        ex.vlaplace(v, geom),
        ex.laplace_wk(dp, geom),
    )


def prim_laplace_wk_task(meta, f):
    """One rank's scalar weak laplacian of a single field.

    The per-field twin of :func:`prim_laplace_task`, used by the
    pipelined hyperviscosity chain: splitting the fused three-field
    task lets the driver's DSS of field *f* overlap worker compute of
    field *f+1* (values are unchanged — each field's laplacian is
    computed by the same operator on the same inputs).
    """
    geom = _task_geom(meta)
    return (_path_kernels(meta).laplace_wk(f, geom),)


def prim_vlaplace_task(meta, v):
    """One rank's vector laplacian of a single field (pipelined twin)."""
    geom = _task_geom(meta)
    return (_path_kernels(meta).vlaplace(v, geom),)


def prim_euler_stage1_task(meta, qdp_q, v):
    """Tracer SSP-RK2 stage 1 (pre-DSS): qdp + sdt * advect(qdp)."""
    geom = _task_geom(meta)
    advect = _path_kernels(meta).advect_qdp
    return (qdp_q + meta["sdt"] * advect(qdp_q, v, geom),)


def prim_euler_stage2_task(meta, qdp_q, st1, v):
    """Tracer SSP-RK2 stage 2 (pre-DSS): 0.5 (qdp + st1 + sdt advect(st1))."""
    geom = _task_geom(meta)
    advect = _path_kernels(meta).advect_qdp
    return (0.5 * (qdp_q + st1 + meta["sdt"] * advect(st1, v, geom)),)


def prim_limit_task(meta, st2):
    """One rank's limiter pass plus its per-element masses.

    Returns ``(limited, before, after)`` with the masses (E_r, L); the
    driver sums them over the mesh in global element order and applies
    the global fixer scale.
    """
    from ..homme.euler import element_mass, limit_qdp

    geom = _task_geom(meta)
    limited = limit_qdp(st2, geom, global_fixer=False)
    return limited, element_mass(st2, geom), element_mass(limited, geom)
