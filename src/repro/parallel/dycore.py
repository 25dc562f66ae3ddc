"""Per-shard task functions: the element-local work of one step recipe.

The step recipes (:mod:`repro.homme.timestep`,
:mod:`repro.homme.shallow_water`) are written once against a layout's
``_fanout_dss(task, meta, per_shard_arrays, ...)``; these are the
tasks.  Every DSS is two per-shard tasks around the exchange, each
streaming the shard's element blocks (:func:`blocks`): :func:`pack_task`
writes a block's task outputs (:func:`run_task`), weighted, into its
rows of one flat buffer (:func:`pack`) before the next block's task
runs; :func:`sum_task`, once every shard has packed, sums a block's
slots into its rows of the arrays it is handed.  The one-shard layout
calls them in process per block, the N-shard layout
(:mod:`repro.homme.distributed`) once per shard through its engine, so
every path executes the same float64 streams.  Every array a task is
handed is per element; what is not rides in the meta.

A task that makes a shard array writes it into an array it is handed
— the array the result replaces, or one the layout allocates (resident
on a pool) — and returns it, and no task writes an array any task of
its batch reads: re-running one rewrites the same bytes.

Geometry never crosses a queue: the engine is built around the shard
:class:`~repro.homme.element.ElementGeometry` objects, a task meta names
its shard's (``"ctx"``, an index) and its execution path (``"path"`` —
required: a meta without it is a driver bug), and the task receives
that geometry as its first argument.
"""

from __future__ import annotations

import math

import numpy as np

from ..homme import remap
from ..homme.element import ElementState
from ..homme.euler import fixer_multiply, limit_local, ssp_stage1, ssp_stage2


def _kernels(meta):
    # Imported here: backends.functional_exec imports repro.homme, whose
    # models import these tasks.
    from ..backends.functional_exec import homme_execution

    return homme_execution(meta["path"])


def sw_stage_task(geom, meta, base_h, base_v, point_h, point_v):
    """One shard's shallow-water RK-stage update ``base + dt * tendency``
    of h and v (pre-DSS)."""
    dh, dv = _kernels(meta).sw_rhs(point_h, point_v, geom)
    return base_h + meta["dt"] * dh, base_v + meta["dt"] * dv


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
    return ex.laplace_wk(T, geom), ex.vlaplace(v, geom), ex.laplace_wk(dp, geom)


def prim_euler_stage1_task(geom, meta, qdp, v):
    """A shard's (E_r, Q, L, n, n) tracer stack through SSP-RK2 stage 1 (pre-DSS)."""
    adv = _kernels(meta).tracer_tendency(v, geom)
    return (ssp_stage1(qdp, adv, meta["sdt"]),)


def prim_euler_stage2_task(geom, meta, qdp, st1, v):
    """A shard's tracer stack through SSP-RK2 stage 2 (pre-DSS)."""
    adv = _kernels(meta).tracer_tendency(v, geom)
    return (ssp_stage2(qdp, st1, adv, meta["sdt"]),)


def prim_limit_post(geom, meta, st2):
    """A shard's elementwise limiter pass on its DSS'd stage-2 stack:
    ``(limited, masses)``, the (E_r, 2, Q, L) per-element masses before
    and after, which the recipe sums in global element order for the
    fixer's scale; ``limited`` is ``st2`` where nothing needs limiting."""
    limited, before, after = limit_local(st2, geom)
    return limited, np.stack((before, after), axis=1)


def prim_fixer_task(geom, meta, limited):
    """A shard's limited stack times the global fixer's (Q, L)
    ``meta["scale"]`` (pre-DSS); ``limited`` itself where the multiply is
    the identity."""
    return (fixer_multiply(limited, meta["scale"]),)


def hypervis_post(geom, meta, *arrays):
    """A shard's hyperviscosity update on its DSS'd biharmonics: ``arrays``
    is k biharmonics and their k fields; returns each ``f - c * bih(f)``
    with ``c = meta["c"]`` (the sweep's dt times nu)."""
    k, c = len(arrays) // 2, meta["c"]
    return tuple(f - c * bih for bih, f in zip(arrays[:k], arrays[k:]))


def prim_hypervis_remap_post(geom, meta, bih_T, bih_v, bih_dp, T, v, dp, qdp):
    """The last hyperviscosity update of a remap step, then the shard's
    vertical remap back to reference levels: (v, T, dp3d, qdp)."""
    T, v, dp = hypervis_post(geom, meta, bih_T, bih_v, bih_dp, T, v, dp)
    new = remap.vertical_remap(ElementState(v=v, T=T, dp3d=dp, qdp=qdp))
    return new.v, new.T, new.dp3d, new.qdp


# -- the two halves of a DSS --------------------------------------------------------
#
# ``meta["levels"]``: fields carry a level axis after the element axis;
# ``meta["fold"]``: each field is an (E, Q, L, n, n) stack, folded to
# (E, Q*L, n, n); ``meta["cols"]``: the bundle's columns per point.  A
# field with one axis more than a scalar is a contravariant (..., 2)
# vector and crosses the exchange as its three Cartesian component
# planes, a column block each; level axes move last.

#: The (E, L, n, n) plane with its level axis last, and back: fixed
#: ``transpose`` axes, the views ``np.moveaxis`` makes without its
#: per-call axis normalisation.
_LEVELS_LAST = (0, 2, 3, 1)
_LEVELS_FIRST = (0, 3, 1, 2)


def _folded(f, meta):
    return f.reshape(len(f), -1, *f.shape[-2:]) if meta["fold"] else f


def _nplanes(f, meta) -> int:
    """Planes the folded field ``f`` crosses the exchange as: a vector's
    three, a scalar's one."""
    return 3 if f.ndim == 4 + meta["levels"] else 1


def dss_columns(fields, levels: bool, fold: bool) -> int:
    """Columns a point of the folded ``fields`` takes in the flat buffer."""
    meta = {"levels": levels, "fold": fold}
    return sum(math.prod(f.shape[1:2] if levels else ()) * _nplanes(f, meta)
               for f in (_folded(f, meta) for f in fields))


def exchange_form(geom, fields, meta) -> list[np.ndarray]:
    """``fields`` in the form a DSS sums: every field's (E, n, n[, L])
    planes, levels last, in order — a vector's three Cartesian
    components, a scalar itself (a view)."""
    planes = []
    for f in fields:
        f = _folded(f, meta)
        ws = geom.to_cartesian_planes(f) if _nplanes(f, meta) == 3 else [f]
        planes += [w.transpose(_LEVELS_LAST) for w in ws] if meta["levels"] else ws
    return planes


def exchange_shapes(fields, meta) -> list[tuple[int, ...]]:
    """The shapes of the :func:`exchange_form` of fields shaped like ``fields``."""
    shapes = []
    for f in fields:
        o = _folded(f, meta)
        s = o.shape[:1] + o.shape[2:4] + o.shape[1:2] if meta["levels"] else o.shape[:3]
        shapes += [s] * _nplanes(o, meta)
    return shapes


def run_task(geom, meta, *ins):
    """The fields a shard's DSS carries: ``meta["task"]`` on ``ins``, or
    ``ins`` themselves when there is no task."""
    task = meta["task"]
    return ins if task is None else task(geom, meta, *ins)


def pack(geom, meta, fields, buf) -> None:
    """``fields``' :func:`exchange_form` weighted into the shard's rows of
    the flat buffer ``buf``."""
    plan = geom.dss_plan
    plan.pack(exchange_form(geom, fields, meta), plan.rows(buf, meta["cols"]))


def blocks(geom):
    """``(lo, hi, geometry)`` of the element blocks a task on the shard
    ``geom`` streams: ``geom.blocks``, or the shard as its one block."""
    return geom.blocks or ((0, geom.nelem, geom),)


def pack_task(geom, meta, *arrays):
    """Stage 0 of a shard's DSS task, block by block: :func:`pack` of
    :func:`run_task` on its rows of the first ``meta["nin"]`` arrays into
    the flat buffer after them; returns the shard's rows of the buffer."""
    ins, buf, split = arrays[:meta["nin"]], arrays[meta["nin"]], blocks(geom)
    for lo, hi, g in split:
        pack(g, meta, run_task(g, meta, *(a[lo:hi] for a in ins)), buf)
    first, last = split[0][2].dss_plan, split[-1][2].dss_plan
    return (first.rows(buf, meta["cols"])[first.p0:last.p1],)


def finish_dss(geom, meta, like, sums, rest) -> tuple:
    """The summed exchange form ``sums`` of the fields ``like`` back in
    their form, then ``meta["post"]`` (if any) on them and the first
    ``meta["npost"]`` of ``rest``; the result goes into the rest of
    ``rest`` (returned) or, with none, into fresh arrays."""
    post, npost = meta["post"], meta["npost"]
    inputs, outs = rest[:npost], rest[npost:]
    fields = outs if post is None and outs else [np.empty(a.shape) for a in like]
    c0 = 0
    for o in (_folded(f, meta) for f in fields):
        planes = sums[c0:c0 + _nplanes(o, meta)]
        c0 += len(planes)
        if meta["levels"]:
            planes = [d.transpose(_LEVELS_FIRST) for d in planes]
        if len(planes) == 3:
            geom.from_cartesian_planes(planes, o)
        else:
            np.copyto(o, planes[0])
    if post is None:
        return tuple(fields)
    result = post(geom, meta, *fields, *inputs)
    for o, r in zip(outs, result):
        np.copyto(o, r)
    return tuple(outs) if outs else result


def sum_task(geom, meta, *arrays):
    """Stage 1, once every shard has packed, block by block: the block's
    slots summed from the flat buffer and finished (:func:`finish_dss`)
    into its rows of the arrays after it, which are returned; with none,
    into fresh ones (the first block's own when it is the shard)."""
    nin, npost = meta["nin"], meta["npost"]
    like, buf = arrays[:nin][:meta["nout"]], arrays[nin]
    inputs, outs = arrays[nin + 1:nin + 1 + npost], arrays[nin + 1 + npost:]
    for lo, hi, g in blocks(geom):
        plan, rows = g.dss_plan, [a[lo:hi] for a in like]
        done = finish_dss(g, meta, rows,
                          plan.sum(plan.rows(buf, meta["cols"]), exchange_shapes(rows, meta)),
                          [a[lo:hi] for a in (*inputs, *outs)])
        if not outs:
            outs = done if hi - lo == geom.nelem else _shard_arrays(done, lo, geom.nelem)
        del done  # before the next block's sums
    return tuple(outs)


def _shard_arrays(block, lo: int, n: int) -> list:
    """Fresh (n, ...) arrays holding a block's results at rows ``lo``..."""
    outs = [np.empty((n,) + a.shape[1:]) for a in block]
    for o, a in zip(outs, block):
        o[lo:lo + len(a)] = a
    return outs
