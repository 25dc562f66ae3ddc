"""Per-shard task functions: the element-local work of one step recipe.

The step recipes (:mod:`repro.homme.timestep`,
:mod:`repro.homme.shallow_water`) are written once against a layout's
``_fanout_dss(task, meta, per_shard_arrays, ...)``; these are the
tasks.  Every DSS is two per-shard tasks around the exchange:
:func:`pack_task` runs a compute task (or none, :func:`run_task`) and
writes its outputs' weighted contributions into the shard's rows of one
flat buffer (:func:`pack`), and
:func:`sum_task`, once every shard has packed, sums the shard's slots
into the arrays it is handed.  The one-shard layout calls the tasks in
process on the whole-mesh geometry or its element blocks, every block's
pack before any block's sum, as the engine's in-process path does;
the N-shard layout (:mod:`repro.homme.distributed`) runs them once per
shard through its engine, in process or on a worker — the same functions
on every path, so every path executes the same float64 streams.

A task that makes a shard array writes it into an array it is handed
— the array the result replaces, or one the layout allocates (resident
on a pool) — and returns it, and no task writes an array any task of
its batch reads: re-running one rewrites the same bytes.

Geometry never crosses a queue: the engine is built around the shard
:class:`~repro.homme.element.ElementGeometry` objects (each carrying its
``dss_plan``), a task meta names its shard's (``"ctx"``, an index) and
its execution path (``"path"`` — required: a meta without it is a driver
bug, not a request for default kernels), and the task receives that
geometry as its first argument.
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


def prim_limit_post(geom, meta, st2):
    """A shard's elementwise limiter pass on its DSS'd stage-2 stack:
    ``(limited, masses)`` with the (E_r, 2, Q, L) per-element masses —
    before and after — the recipe sums over the mesh, in global element
    order, for the global fixer's scale.  ``limited`` is ``st2`` itself
    when no element-level needs the limiter."""
    limited, before, after = limit_local(st2, geom)
    return limited, np.stack((before, after), axis=1)


def prim_fixer_task(geom, meta, limited, scale):
    """A shard's limited stack times the global fixer's (Q, L) scale
    (pre-DSS); ``limited`` itself where the multiply is the identity."""
    return (fixer_multiply(limited, scale),)


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


def _is_vector(f, meta) -> bool:
    return f.ndim == 4 + meta["levels"]


def _nplanes(f, meta) -> int:
    """Planes the folded field ``f`` crosses the exchange as."""
    return 3 if _is_vector(f, meta) else 1


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
        ws = geom.to_cartesian_planes(f) if _is_vector(f, meta) else [f]
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


def from_exchange(geom, planes, out, meta) -> None:
    """Write the summed exchange form ``planes`` of one field back into
    ``out``'s own form."""
    o = _folded(out, meta)
    if meta["levels"]:
        planes = [d.transpose(_LEVELS_FIRST) for d in planes]
    if _is_vector(o, meta):
        geom.from_cartesian_planes(planes, o)
    else:
        np.copyto(o, planes[0])


def finish_dss(geom, meta, like, sums, rest) -> tuple:
    """The end of a shard's DSS: the summed exchange form ``sums`` of the
    fields ``like`` back in those fields' form, then — with a
    ``meta["post"]`` step — ``post(geom, meta, *fields, *inputs)`` on
    them, ``inputs`` being the first ``meta["npost"]`` of ``rest``.  The
    rest of ``rest``, when given, receives the result — the arrays it
    replaces, or resident ones a pool hands out — and is returned;
    otherwise the result is fresh arrays, allocated after the sums' own
    temporaries."""
    post, npost = meta["post"], meta["npost"]
    inputs, outs = rest[:npost], rest[npost:]
    fields = outs if post is None and outs else [np.empty(a.shape) for a in like]
    c0 = 0
    for o in fields:
        c1 = c0 + _nplanes(_folded(o, meta), meta)
        from_exchange(geom, sums[c0:c1], o, meta)
        c0 = c1
    if post is None:
        return tuple(fields)
    result = post(geom, meta, *fields, *inputs)
    for o, r in zip(outs, result):
        np.copyto(o, r)
    return tuple(outs) if outs else result


def run_task(geom, meta, *ins):
    """The fields a shard's DSS carries: ``meta["task"]`` on ``ins``, or
    ``ins`` themselves when there is no task."""
    task = meta["task"]
    return ins if task is None else task(geom, meta, *ins)


def pack(geom, meta, fields, buf):
    """``fields``' :func:`exchange_form` weighted into the shard's rows of
    the flat buffer ``buf``; returns those rows."""
    plan = geom.dss_plan
    return (plan.pack(exchange_form(geom, fields, meta),
                      plan.rows(buf, meta["cols"])),)


def pack_task(geom, meta, *arrays):
    """Stage 0 of a shard's DSS task: :func:`run_task` on the first
    ``meta["nin"]`` arrays, then :func:`pack` of its outputs into the flat
    buffer that follows them."""
    nin = meta["nin"]
    return pack(geom, meta, run_task(geom, meta, *arrays[:nin]), arrays[nin])


def sum_task(geom, meta, *arrays):
    """Stage 1, once every shard has packed: the shard's slots summed from
    the flat buffer, finished (:func:`finish_dss`) into the arrays after
    it.  The outputs are shaped like the first ``meta["nout"]`` inputs."""
    nin = meta["nin"]
    like, buf = arrays[:nin][:meta["nout"]], arrays[nin]
    plan = geom.dss_plan
    sums = plan.sum(plan.rows(buf, meta["cols"]), exchange_shapes(like, meta))
    return finish_dss(geom, meta, like, sums, arrays[nin + 1:])
