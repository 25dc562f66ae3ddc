"""``prim_run``: the CAM-SE dynamics step, written once.

One dynamics step is (CAM-SE structure, paper Section 6):

1. RK dynamics — three stages of :func:`compute_and_apply_rhs` (the
   3-stage second-order Runge--Kutta HOMME describes as "a combination
   of the RK2 and Leapfrog schemes");
2. tracer advection — :func:`euler_step_subcycled`, SSP-RK2 subcycled
   ``tracer_subcycles`` times;
3. hyperviscosity — :func:`advance_hypervis`;
4. every :data:`RSPLIT` steps, :func:`vertical_remap` back to reference
   levels;
5. the column physics (``forcing``), shard by shard.

The recipe (:class:`_PrimRecipe`) is written against a *layout*: two
calls — ``_fanout_dss(task, meta, per_shard_arrays, stage, slot, ...)``
runs a :mod:`repro.parallel.dycore` task once per shard and assembles
its outputs on every shard in one synchronisation (then, optionally, a
``post`` step on each shard's sums), ``_mesh_sum(rows)`` sums
per-element rows over the whole mesh in global element order — plus the
tracing hooks ``_clocks`` / ``_rank_spans``.  There are two layouts:
:class:`_WholeMesh`, the whole mesh as one rank whose element blocks are
the shards (:class:`PrimitiveEquationModel`), and
:class:`repro.homme.distributed._DistributedModel`, simulated MPI ranks
in rank groups (``DistributedPrimitiveEquations``).  Both run one DSS
data path — every shard's :func:`~repro.parallel.dycore.pack_task`
writes its rows of one flat buffer, then every shard's
:func:`~repro.parallel.dycore.sum_task` sums its own slots
(:class:`~repro.homme.bndry.ShardPlan`); the one-shard layout streams
its blocks through it in process, no whole-mesh assembly — and inherit
the one ``step()``; the shallow-water pair in
:mod:`repro.homme.shallow_water` is built the same way.

The step runs in the memory the state holds: each tracer subcycle's
closing DSS writes into the stack it started from (the state's ``qdp``)
and the closing hyperviscosity DSS into the step's input state (its
``v``, ``T`` and ``dp3d``, and on a remap step ``qdp``) — arrays no task
of that DSS reads, so a re-executed task rewrites the same bytes.  State
arrays a caller keeps across :meth:`~_Layout.step` are therefore
overwritten; keep a :meth:`~_Layout.snapshot` instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import constants as C
from ..config import ModelConfig
from ..errors import KernelError
from ..mesh.cubed_sphere import CubedSphereMesh
from ..obs.tracer import NULL_TRACER
from ..parallel import dycore
from .bndry import HaloExchanger
from .element import ElementGeometry, ElementState, bad_values, check_dt, check_steps
from .euler import restoring_scale, sum_elements
from .hypervis import hypervis_stable_subcycles, nu_for_mesh
from .remap import vertical_remap  # noqa: F401 - the step benchmark patches it here
from . import diagnostics

#: Dynamics steps between vertical remaps (CAM-SE rsplit).
RSPLIT = 3

#: Forcing signature: f(state, geom, t, dt) -> None (modifies state in place).
ForcingFn = Callable[[ElementState, ElementGeometry, float, float], None]

#: Bytes of the largest state array one element block may hold: a
#: quarter of a 2 MiB per-core L2, so a task's inputs, temporaries and
#: outputs stay in cache.
BLOCK_BYTES = 512 * 1024


def block_elements(state) -> int:
    """Elements of ``state`` one block holds: as many as keep its largest
    per-element array within :data:`BLOCK_BYTES`, and at least one."""
    per_elem = max(a.nbytes // len(a) for a in vars(state).values())
    return max(1, BLOCK_BYTES // per_elem)


def checked_state(state, fields: tuple[str, ...]):
    """``state`` with every prognostic array in float64 (a real dtype is
    cast, anything else raises); :class:`KernelError` naming the field
    when its values are not valid (:func:`~repro.homme.element.bad_values`)."""
    arrays = {}
    for f in fields:
        a = np.asarray(getattr(state, f))
        if a.dtype.kind not in "fiu":
            raise KernelError(
                f"initial state {f} has dtype {a.dtype}, not a real number")
        arrays[f] = a = a.astype(np.float64, copy=False)
        n, rule = bad_values(f, a)
        if n:
            must = "is not finite" if rule == "non-finite" else "must be > 0"
            raise KernelError(
                f"initial state {f} {must} everywhere: {n} {rule} value(s)")
    return type(state)(**arrays)


class _Layout:
    """What every layout shares: stepping, the one snapshot, the one DSS.

    A snapshot is every rank's prognostic arrays (``<field>_<rank>``,
    ``_fields`` from the recipe, ranks from :meth:`rank_states` — the
    whole mesh is rank 0) plus ``(t, step_count)`` under ``"meta"``;
    :class:`~repro.resilience.checkpoint.Checkpointer`,
    :class:`~repro.resilience.runner.ResilientRunner` and
    :class:`~repro.resilience.validator.StateValidator` read models only
    through it and :meth:`rank_states`.
    """

    _fields: tuple[str, ...]
    #: Model time [s] and steps taken, until the first step or restore.
    t = 0.0
    step_count = 0

    def run_steps(self, n: int) -> None:
        """Advance ``n`` steps; :class:`KernelError` unless ``n`` is a whole
        number >= 0."""
        for _ in range(check_steps(n)):
            self.step()

    def _run_for(self, amount: float, name: str, unit_s: float) -> None:
        """Advance the whole steps nearest ``amount`` units of ``unit_s``
        seconds; :class:`KernelError` unless ``amount`` is finite and >= 0."""
        if not (np.isfinite(amount) and amount >= 0):
            raise KernelError(f"{name} must be finite and >= 0, got {amount!r}")
        self.run_steps(int(round(amount * unit_s / self.dt)))

    def _state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{f}_{r}": getattr(s, f)
                for r, s in enumerate(self.rank_states()) for f in self._fields}

    def snapshot(self) -> dict[str, np.ndarray]:
        """Everything needed to continue the trajectory bitwise.

        Per-rank prognostic arrays (``<field>_<rank>``) plus the scalar
        counters (model time, step count) under ``"meta"``, copied: a
        step writes the live state arrays in place, so a state to keep
        across steps is a snapshot.
        """
        snap = {"meta": np.array([self.t, self.step_count], dtype=np.float64)}
        snap.update((k, a.copy()) for k, a in self._state_arrays().items())
        return snap

    def restore_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        """Reset the prognostic state from a :meth:`snapshot` dict.

        The snapshot must hold exactly this model's keys with its
        arrays' shapes and dtypes and valid values (:func:`~repro.homme.element.bad_values`),
        a finite time >= 0 and a whole step count >= 0; anything else
        raises :class:`KernelError` naming the key and leaves the model
        untouched.
        """
        live = self._state_arrays()
        if "meta" not in snap or np.shape(snap["meta"]) != (2,):
            raise KernelError("snapshot key 'meta' must hold (t, step_count)")
        odd = sorted(set(snap) ^ {"meta", *live})
        if odd:
            raise KernelError(
                f"snapshot rank count or fields do not match this model: key "
                f"{odd[0]!r} is {'unexpected' if odd[0] in snap else 'missing'}")
        new = {key: np.asarray(snap[key]) for key in live}
        for key, arr in new.items():
            cur = live[key]
            if arr.shape != cur.shape or arr.dtype != cur.dtype:
                raise KernelError(
                    f"snapshot key {key!r} is {arr.dtype}{arr.shape}, this "
                    f"model's state is {cur.dtype}{cur.shape}")
            n, rule = bad_values(key.rsplit("_", 1)[0], arr)
            if n:
                raise KernelError(f"snapshot key {key!r} has {n} {rule} value(s)")
        t, steps = (float(x) for x in snap["meta"])
        if not (np.isfinite(t) and t >= 0 and steps.is_integer() and steps >= 0):
            raise KernelError(
                f"snapshot key 'meta': time {t} must be finite and >= 0, step "
                f"count {steps} a whole number >= 0")
        self.t = t
        self.step_count = int(steps)
        for key, arr in new.items():
            live[key][...] = arr

    def _fanout_dss(self, task, meta: dict, per_shard_arrays: list[tuple],
                    stage: int, slot: int, nout: int | None = None,
                    fold: bool = False, post=None,
                    post_arrays: list[tuple] | None = None,
                    outs: list[tuple] | None = None) -> list[tuple]:
        """Run ``task`` on every shard and DSS its outputs — shaped like its
        first ``nout`` inputs (all, by default) — in one synchronisation;
        ``task=None`` DSSes the arrays themselves.  Returns the DSS'd
        fields per shard, C-contiguous — or, given a ``post`` step, what
        ``post(geom, meta, *fields, *post_arrays[shard])`` returns, the
        fields being temporaries of the shard's task.

        ``outs`` names, per shard, what the results replace: arrays, whose
        memory receives the results wherever the layout may hand them to
        the shard's task (:meth:`_resident`) — no task of the call may
        read them — or, for fresh memory, shapes; by default the shapes
        of the first ``nout`` inputs.

        Per shard, ``task`` runs and its outputs' weighted contributions
        are packed into the shard's rows of one flat buffer; then every
        shard's slots are summed from it (:class:`~repro.homme.bndry.ShardPlan`)
        — where, is the layout's ``_pack_and_sum``.  ``fold`` treats each
        output as an (E, Q, L, n, n) stack, (Q, L) one level axis.
        C-contiguous results keep the state's memory layout — and
        therefore every later reduction's rounding — the one a restored
        checkpoint has.
        """
        if post is None:
            post_arrays = [()] * len(per_shard_arrays)
        if outs is None:
            outs = [tuple(a.shape for a in arrays[:nout]) for arrays in per_shard_arrays]
        rest = [(*p, *self._resident(o)) for p, o in zip(post_arrays, outs)]
        meta = {**meta, "task": task, "post": post, "levels": self._levels,
                "fold": fold, "nin": len(per_shard_arrays[0]), "nout": nout,
                "npost": len(post_arrays[0]),
                "cols": dycore.dss_columns(per_shard_arrays[0][:nout],
                                           self._levels, fold)}
        return self._pack_and_sum(per_shard_arrays, rest, meta, stage, slot)


def writable(outs) -> bool:
    """Whether every entry of ``outs`` is an array a task may write its
    results into: writeable, and C-contiguous as fresh results are."""
    return all(isinstance(o, np.ndarray) and o.flags.c_contiguous
               and o.flags.writeable for o in outs)


class _WholeMesh(_Layout):
    """The one-shard layout: the whole mesh is rank 0, its element blocks
    (contiguous mesh-order ranges, geometries views of :attr:`geom`,
    :meth:`_split_blocks`) are the shards.

    :attr:`states` is one state per block, row views of :attr:`state`
    taken when a step starts; setting it keeps every field whose blocks
    are still those rows and joins any other, one concatenation per
    field (one block: no view, no copy).  A task runs once per block and
    copies nothing — tasks are element-local, so the bits are the
    unblocked call's.  A DSS runs as the engine's in-process path runs
    it: every block's task and pack (the halves of
    :func:`~repro.parallel.dycore.pack_task`) into one flat buffer,
    block by block, so a block's outputs die after its own pack; then
    every block's :func:`~repro.parallel.dycore.sum_task`.  The plan is the whole mesh
    at one rank in mesh order (each block geometry carries its
    ``dss_plan``): no received rows, the slots and bits of
    :meth:`~repro.mesh.cubed_sphere.CubedSphereMesh.dss`.  ``_mesh_sum``
    is :func:`~repro.homme.euler.sum_elements` of the blocks' rows in
    element order.  Spans live on the *model time* axis of the
    ``"serial"`` track (no simulated clock).  Subclasses set ``_levels``
    and ``_fields`` (through their recipe) and ``state`` (their own
    copy), then call :meth:`_split_blocks`.
    """

    _levels: bool

    def __init__(self, mesh: CubedSphereMesh, tracer, exec_path: str) -> None:
        # Imported lazily: backends.functional_exec imports repro.homme.
        from ..backends.functional_exec import homme_execution

        homme_execution(exec_path)  # fails fast on unknown paths
        self.exec_path = exec_path
        self.mesh = mesh
        self.geom = ElementGeometry(mesh)
        self._plan = HaloExchanger(mesh)
        self.tracer = NULL_TRACER if tracer is None else tracer

    @property
    def states(self) -> list:
        """One state per element block, row views of :attr:`state`."""
        if len(self.blocks) == 1:
            return [self.state]
        return [type(self.state)(**{f: getattr(self.state, f)[lo:hi]
                                    for f in self._fields})
                for lo, hi, _ in self.blocks]

    @states.setter
    def states(self, states: list) -> None:
        if len(states) == 1:
            self.state = states[0]
            return
        fields = {}
        for f in self._fields:
            whole, parts = getattr(self.state, f), [getattr(s, f) for s in states]
            # Same address, shape and strides: the block is still its rows.
            rows = all(p.__array_interface__ == whole[lo:hi].__array_interface__
                       for p, (lo, hi, _) in zip(parts, self.blocks, strict=True))
            fields[f] = whole if rows else np.concatenate(parts)
        self.state = type(states[0])(**fields)

    @property
    def blocks(self) -> list[tuple[int, int, ElementGeometry]]:
        """``(lo, hi, geometry of elements lo..hi-1)`` in mesh order;
        setting them gives each geometry its share of the whole-mesh
        plan (``dss_plan``)."""
        return self._blocks

    @blocks.setter
    def blocks(self, blocks) -> None:
        for lo, hi, g in blocks:
            g.dss_plan = self._plan.shard_plan(lo, hi)
        self._blocks = blocks

    @property
    def geoms(self) -> list[ElementGeometry]:
        return [g for _, _, g in self.blocks]

    def rank_states(self) -> list:
        """The whole mesh is rank 0: ``[state]``, the live arrays a step
        overwrites — keep a :meth:`snapshot` instead."""
        return [self.state]

    def _split_blocks(self) -> None:
        """Split the mesh into near-equal contiguous element ranges, as few
        as keep the state's largest per-element array under
        :data:`BLOCK_BYTES` a block; one block reuses :attr:`geom`."""
        E = self.mesh.nelem
        k = -(-E // block_elements(self.state))
        bounds = [i * E // k for i in range(k + 1)]
        self.blocks = [(0, E, self.geom)] if k == 1 else [
            (lo, hi, self.geom.rows(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

    @staticmethod
    def _resident(outs) -> tuple:
        """``outs`` themselves when a task may write into them
        (:func:`writable`); else none — in process, a task's fresh
        results are its own arrays, allocated after its temporaries."""
        return tuple(outs) if writable(outs) else ()

    def _pack_and_sum(self, per_shard_arrays, rest, meta, stage: int,
                      slot: int) -> list[tuple]:
        """In process: every block's task and pack — the two halves of
        :func:`~repro.parallel.dycore.pack_task` — into one flat buffer,
        then every block's :func:`~repro.parallel.dycore.sum_task`
        finishing into ``rest``.  The buffer is allocated once the first
        block's task has returned, so it never coexists with that task's
        temporaries."""
        meta = {**meta, "path": self.exec_path}
        buf = None
        for g, arrays in zip(self.geoms, per_shard_arrays, strict=True):
            fields = dycore.run_task(g, meta, *arrays)
            if buf is None:
                buf = np.empty(self.mesh.nelem * self.mesh.np ** 2 * meta["cols"])
            dycore.pack(g, meta, fields, buf)
            del fields
        return [dycore.sum_task(g, meta, *arrays, buf, *r)
                for g, arrays, r in zip(self.geoms, per_shard_arrays, rest)]

    def _mesh_sum(self, per_elem: list[np.ndarray]) -> np.ndarray:
        return sum_elements(np.concatenate(per_elem))

    def _clocks(self) -> list[float]:
        return [self.t]

    def _rank_spans(self, name: str, t0s: list[float] | None, **args) -> None:
        if not self.tracer.enabled:
            return
        if t0s is None:
            self.tracer.instant("serial", name, self.t, cat="model", **args)
        else:
            self.tracer.span_at("serial", name, t0s[0], self.t, cat="model",
                                **args)


# -- the recipe's phases ------------------------------------------------------------
#
# Module functions called through the module, so a profiler can wrap each.
# They take a layout and per-shard states, and are the one implementation
# of the Table-1 kernels of the step: compute_and_apply_rhs is an RK stage,
# euler_step is euler_step_subcycled, and hypervis_dp1/dp2 with
# biharmonic_dp3d are the two sweeps of advance_hypervis.


def compute_and_apply_rhs(model, bases: list, points: list, dt: float,
                          stage: int) -> list[ElementState]:
    """One RK stage on every shard: ``base + dt RHS(point)``, then one DSS
    of (v, T, dp3d).  Every stage shares the base's ``qdp`` — nothing
    writes one in place."""
    t0s = model._clocks()
    outs = model._fanout_dss(
        dycore.prim_stage_task, {"dt": dt},
        [(b.v, b.T, b.dp3d, p.v, p.T, p.dp3d) for b, p in zip(bases, points)],
        stage, slot=0, nout=3)
    model._rank_spans("rk_stage", t0s, stage=stage, step=model.step_count)
    return [ElementState(v=v, T=T, dp3d=dp, qdp=b.qdp)
            for b, (v, T, dp) in zip(bases, outs)]


def _dss_stack(model, stacks: list, slot: int, task=None,
               meta: dict | None = None, into: list | None = None) -> list[np.ndarray]:
    """DSS (E_r, Q, L, n, n) tracer stacks in one synchronisation, (Q, L)
    folded into the level axis: ``stacks`` themselves, or — given a
    ``task`` — the stack ``task`` makes from each shard's tuple of inputs
    ``stacks`` (shaped like its first).  ``into``: per shard, the stack
    the result replaces, written in place (:meth:`_Layout._fanout_dss`)."""
    per_shard = [(s,) for s in stacks] if task is None else stacks
    out = model._fanout_dss(task, meta or {}, per_shard, stage=4, slot=slot,
                            nout=1, fold=True,
                            outs=None if into is None else [(q,) for q in into])
    return [o for o, in out]


def euler_step_subcycled(model, states: list, remap: bool = False) -> None:
    """Tracer advection: ``tracer_subcycles`` SSP-RK2 steps of each shard's
    whole tracer stack, a DSS after each stage and after the limiter,
    whose global mass fixer is the one ``_mesh_sum`` (its scale multiply
    runs in the closing DSS's pack).  The closing DSS restores the edge
    continuity the elementwise rescale breaks (a positive-weighted
    average of non-negative values stays non-negative), which keeps the
    next flux-form divergence exactly conservative.  It writes into the
    stack its subcycle started from — every state's ``qdp``, in place —
    except on a ``remap`` step's last subcycle, whose fresh stack the
    remap reads while it writes the step's own ``qdp``.  A stage's
    per-shard list is dropped once the next has consumed it (peak RSS)."""
    t0s = model._clocks()
    sub = model.cfg.tracer_subcycles
    meta = {"sdt": model.dt / sub}
    vs, qdps = [s.v for s in states], [s.qdp for s in states]
    for slot0 in range(0, 3 * sub, 3):
        st1 = _dss_stack(model, list(zip(qdps, vs)), slot0,
                         dycore.prim_euler_stage1_task, meta)
        lim = model._fanout_dss(
            dycore.prim_euler_stage2_task, meta, list(zip(qdps, st1, vs)),
            stage=4, slot=slot0 + 1, nout=1, fold=True,
            post=dycore.prim_limit_post, post_arrays=[()] * len(qdps),
            outs=[(q.shape, (len(q), 2) + q.shape[1:3]) for q in qdps])
        del st1
        before, after = model._mesh_sum([m for _, m in lim])
        scale = restoring_scale(before, after)
        fresh = remap and slot0 == 3 * (sub - 1)
        qdps = _dss_stack(model, [(q, scale) for q, _ in lim], slot0 + 2,
                          dycore.prim_fixer_task, into=None if fresh else qdps)
        del lim
    for s, qdp in zip(states, qdps):
        s.qdp = qdp
    model._rank_spans("euler_step", t0s, step=model.step_count)


def biharmonic(model, task, fields: list[tuple], slot0: int, meta: dict | None = None,
               post=None, post_arrays: list[tuple] | None = None,
               outs: list[tuple] | None = None) -> list[tuple]:
    """The weak biharmonic of every shard's tuple of fields: two laplacian
    rounds of ``task``, each one fan-out and one DSS of all the fields;
    ``post`` finishes the second into ``outs`` (:meth:`_Layout._fanout_dss`)."""
    lap = model._fanout_dss(task, {}, fields, stage=5, slot=slot0)
    return model._fanout_dss(task, meta or {}, lap, stage=5, slot=slot0 + 1,
                             post=post, post_arrays=post_arrays, outs=outs)


def advance_hypervis(model, states: list, remap: bool = False,
                     into: list | None = None) -> None:
    """Hyperviscosity on T, v and dp3d over one step, in the stable number
    of subcycles (:func:`~repro.homme.hypervis.hypervis_stable_subcycles`);
    each sweep's update ``f - dt nu bih(f)`` finishes its biharmonic's
    shard tasks.  ``remap`` (a remap step) runs :func:`vertical_remap`
    in the last sweep's tasks too, which replaces every state's ``qdp``
    as well.  ``into``: per shard, a state the last sweep writes its
    fields into, in place — arrays no sweep reads (the step's input
    state, dead once its RK stages have run); by default fresh arrays."""
    t0s = model._clocks()
    meta = {"c": model.dt / model._hv_subcycles * model.nu}
    for sweep in range(model._hv_subcycles):
        fields = [(s.T, s.v, s.dp3d) for s in states]
        last = sweep == model._hv_subcycles - 1
        if remap and last:
            post, post_arrays = dycore.prim_hypervis_remap_post, [
                (*f, s.qdp) for f, s in zip(fields, states)]
            names = ("v", "T", "dp3d", "qdp")
        else:
            post, post_arrays, names = dycore.hypervis_post, fields, ("T", "v", "dp3d")
        if last and into is not None:
            outs = [tuple(getattr(s, k) for k in names) for s in into]
        else:
            outs = [tuple(getattr(s, k).shape for k in names) for s in states]
        new = biharmonic(model, dycore.prim_laplace_task, fields, 2 * sweep,
                         meta, post, post_arrays, outs)
        del fields, post_arrays, outs
        for s, arrays in zip(states, new):
            for k, a in zip(names, arrays):
                setattr(s, k, a)
    model._rank_spans("hypervis", t0s, step=model.step_count)


class _PrimRecipe:
    """The primitive-equation step, for any layout."""

    _levels = True
    _fields = ("v", "T", "dp3d", "qdp")

    def _prim_init(self, cfg: ModelConfig, mesh: CubedSphereMesh,
                   state: ElementState, dt: float, forcing) -> ElementState:
        """Check the initial state against mesh and configuration and set
        the recipe's knobs — before a layout builds anything costly;
        returns the state in float64 (:func:`checked_state`)."""
        if cfg.ne != mesh.ne:
            raise KernelError("mesh resolution disagrees with configuration")
        state.check_consistent()
        want = (mesh.nelem, cfg.qsize, cfg.nlev, mesh.np, mesh.np)
        if state.qdp.shape != want:
            raise KernelError(
                f"initial state qdp has shape {state.qdp.shape}; mesh and "
                f"configuration need (nelem, qsize, nlev, np, np) = {want}")
        state = checked_state(state, self._fields)
        self.cfg = cfg
        self.dt = check_dt(dt)
        self.forcing = forcing
        self.nu = nu_for_mesh(mesh)
        #: Hyperviscosity sweeps per step (the explicit stability rule).
        self._hv_subcycles = hypervis_stable_subcycles(
            self.dt, self.nu, cfg.ne, mesh.radius)
        return state

    def step(self) -> None:
        """Advance one dynamics timestep (RK3 + tracers + hypervis + remap,
        then the forcing)."""
        dt = self.dt
        step_t0s = self._clocks()
        s0 = self.states
        # 3-stage 2nd-order RK (HOMME's RK + leapfrog combination):
        # u1 = u0 + dt/3 f(u0); u2 = u0 + dt/2 f(u1); u = u0 + dt f(u2).
        s1 = compute_and_apply_rhs(self, s0, s0, dt / 3.0, stage=1)
        s2 = compute_and_apply_rhs(self, s0, s1, dt / 2.0, stage=2)
        s3 = compute_and_apply_rhs(self, s0, s2, dt, stage=3)
        del s1, s2  # peak RSS
        # The step runs in the memory it holds: the tracer stack in s0's
        # qdp, the closing hyperviscosity in s0's v, T and dp3d.
        remap = (self.step_count + 1) % RSPLIT == 0
        euler_step_subcycled(self, s3, remap=remap)
        advance_hypervis(self, s3, remap=remap, into=s0)
        self.step_count += 1
        if remap:
            self._rank_spans("vertical_remap", None, step=self.step_count)
        self.t += dt
        if self.forcing is not None:
            # Column physics: shard by shard, in place, no communication.
            for s, g in zip(s3, self.geoms):
                self.forcing(s, g, self.t, dt)
        self.states = s3
        self._rank_spans("step", step_t0s, step=self.step_count - 1)


class PrimitiveEquationModel(_PrimRecipe, _WholeMesh):
    """Primitive-equation dynamical core on the whole cubed sphere.

    The recipe at one shard: used by the numerics tests, the physics
    experiments and the Katrina runs; the N-shard form is
    :class:`repro.homme.distributed.DistributedPrimitiveEquations`, the
    same trajectory bit for bit.

    Parameters
    ----------
    cfg:
        Model configuration (ne, nlev, qsize, timestep).
    mesh:
        Optional pre-built mesh (shared across experiments).
    init:
        Initial condition: "isothermal" rest state, or a ready
        :class:`ElementState` of the mesh's and configuration's shape.
    forcing:
        Optional physics callback applied after each dynamics step.
    dt:
        Override the CFL-derived dynamics timestep.
    tracer:
        Observability tracer (:mod:`repro.obs`): step and phase spans on
        the model-time axis of the "serial" track.
    exec_path:
        Element-local kernel set: ``"fused"`` (default — single-pass
        contractions against preassembled per-mesh operands) or
        ``"batched"`` (the reference kernels built from the operator
        library, which the fused ones are checked against).  See
        :func:`repro.backends.functional_exec.homme_execution`.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        mesh: CubedSphereMesh | None = None,
        init: str | ElementState = "isothermal",
        forcing: ForcingFn | None = None,
        dt: float | None = None,
        tracer=None,
        exec_path: str = "fused",
    ) -> None:
        mesh = mesh if mesh is not None else CubedSphereMesh(cfg.ne, cfg.np)
        super().__init__(mesh, tracer, exec_path)
        if isinstance(init, ElementState):
            state = init.copy()  # owned, not the caller's: restore writes in place
        elif init == "isothermal":
            state = ElementState.isothermal_rest(self.geom, cfg)
        else:
            raise KernelError(f"unknown initial condition {init!r}")
        state = self._prim_init(cfg, mesh, state,
                                cfg.dt_dynamics if dt is None else dt, forcing)
        self.state = state
        self._split_blocks()

    def run_days(self, days: float) -> None:
        """Advance the given number of simulated days."""
        self._run_for(days, "days", C.SECONDS_PER_DAY)

    # -- diagnostics --------------------------------------------------------------

    def diagnostics(self) -> dict[str, float]:
        """Mass/energy/wind/ps diagnostics of the current state."""
        ps_min, ps_max = diagnostics.surface_pressure_range(self.state)
        return {
            "t_days": self.t / C.SECONDS_PER_DAY,
            "mass": diagnostics.total_mass(self.state, self.geom),
            "energy": diagnostics.total_energy(self.state, self.geom),
            "max_wind": diagnostics.max_wind(self.state, self.geom),
            "ps_min": ps_min,
            "ps_max": ps_max,
            "courant": diagnostics.courant_number(
                self.state, self.geom, self.dt, self.cfg.ne
            ),
            "finite": float(diagnostics.state_is_finite(self.state)),
        }
