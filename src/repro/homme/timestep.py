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

The recipe (:class:`_PrimRecipe`) is written against a *layout*: three
calls — ``_fanout(task, meta, per_shard_arrays)`` runs a
:mod:`repro.parallel.dycore` task once per shard, ``_dss(per_shard_tuples,
stage, slot)`` assembles a tuple of fields on every shard in one
synchronisation, ``_mesh_sum(rows)`` sums per-element rows over the
whole mesh in global element order — plus the tracing hooks
``_clocks`` / ``_rank_spans``.  There are two layouts: :class:`_WholeMesh`,
one shard holding the whole mesh (:class:`PrimitiveEquationModel`), and
:class:`repro.homme.distributed._DistributedModel`, one shard per
simulated MPI rank (``DistributedPrimitiveEquations``).  Both models
inherit the one ``step()``; the shallow-water pair in
:mod:`repro.homme.shallow_water` is built the same way.
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
from .element import ElementGeometry, ElementState, check_dt, check_steps
from .euler import restoring_scale, sum_elements
from .hypervis import hypervis_stable_subcycles, nu_for_mesh
from .remap import vertical_remap
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


class _Layout:
    """What every layout shares: stepping and the one snapshot.

    A snapshot is every rank's prognostic arrays (``<field>_<rank>``,
    ``_fields`` from the recipe, ranks from :meth:`rank_states` — the
    whole mesh is rank 0) plus ``(t, step_count, epoch)`` under
    ``"meta"``; :class:`~repro.resilience.checkpoint.Checkpointer`,
    :class:`~repro.resilience.runner.ResilientRunner` and
    :class:`~repro.resilience.validator.StateValidator` read models only
    through it and :meth:`rank_states`.
    """

    _fields: tuple[str, ...]
    #: Model time [s] and steps taken, until the first step or restore.
    t = 0.0
    step_count = 0
    #: Exchange-tag epoch; only the N-shard layout's moves (:meth:`_restored`).
    _epoch = 0

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
        counters (model time, step count, tag epoch) under ``"meta"``.
        """
        snap = {"meta": np.array([self.t, self.step_count, self._epoch],
                                 dtype=np.float64)}
        snap.update((k, a.copy()) for k, a in self._state_arrays().items())
        return snap

    def restore_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        """Reset the prognostic state from a :meth:`snapshot` dict.

        The snapshot must hold exactly this model's keys with its
        arrays' shapes and dtypes, a finite time >= 0 and a whole step
        count >= 0; anything else raises :class:`KernelError` and leaves
        the model untouched.  The tag epoch is *not* restored (see
        :meth:`_restored`).
        """
        live = self._state_arrays()
        if "meta" not in snap or np.shape(snap["meta"]) != (3,):
            raise KernelError(
                "snapshot key 'meta' must hold (t, step_count, epoch)")
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
        t, steps, _epoch = (float(x) for x in snap["meta"])
        if not (np.isfinite(t) and t >= 0 and steps.is_integer() and steps >= 0):
            raise KernelError(
                f"snapshot key 'meta': time {t} must be finite and >= 0, step "
                f"count {steps} a whole number >= 0")
        self.t = t
        self.step_count = int(steps)
        self._restored()
        for key, arr in new.items():
            live[key][...] = arr

    def _restored(self) -> None:
        """Layout hook between a snapshot's validation and its write."""


class _WholeMesh(_Layout):
    """The one-shard layout: the whole mesh is shard 0, run in element blocks.

    ``_fanout`` calls the task in process once per element block — a
    contiguous mesh-order range whose :class:`ElementGeometry` is a
    view of :attr:`geom` (:meth:`_split_blocks`) — on views of the
    inputs, and copies each block's outputs into whole-mesh arrays;
    every task is element-local, so the bits are the unblocked call's.
    ``_dss`` is :meth:`ElementGeometry.dss` (``dss_vector`` for a field
    with one axis more than a scalar) per field on the whole mesh, and
    ``_mesh_sum`` is :func:`~repro.homme.euler.sum_elements`.  There is
    no simulated hardware clock, so spans live on the *model time* axis
    of the ``"serial"`` track.  Subclasses set ``_levels`` and ``_fields``
    (through their recipe) and ``state`` (their own copy), then call
    :meth:`_split_blocks`.
    """

    _levels: bool

    def __init__(self, mesh: CubedSphereMesh, tracer, exec_path: str) -> None:
        # Imported lazily: backends.functional_exec imports repro.homme.
        from ..backends.functional_exec import homme_execution

        homme_execution(exec_path)  # fails fast on unknown paths
        self.exec_path = exec_path
        self.mesh = mesh
        self.geom = ElementGeometry(mesh)
        self.tracer = NULL_TRACER if tracer is None else tracer

    @property
    def states(self) -> list:
        return [self.state]

    @states.setter
    def states(self, states: list) -> None:
        self.state, = states

    @property
    def geoms(self) -> list[ElementGeometry]:
        return [self.geom]

    def rank_states(self) -> list:
        """The whole mesh is rank 0."""
        return self.states

    def _split_blocks(self) -> None:
        """Split the mesh into near-equal contiguous element ranges, as few
        as keep the state's largest per-element array under
        :data:`BLOCK_BYTES` a block; one block reuses :attr:`geom`."""
        E = self.mesh.nelem
        k = -(-E // block_elements(self.state))
        bounds = [i * E // k for i in range(k + 1)]
        #: ``(lo, hi, geometry of elements lo..hi-1)`` in mesh order.
        self.blocks = [(0, E, self.geom)] if k == 1 else [
            (lo, hi, self.geom.rows(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

    def _fanout(self, task, meta_extra: dict,
                per_shard_arrays: list[tuple]) -> list[tuple]:
        meta = {**meta_extra, "path": self.exec_path}
        arrays, = per_shard_arrays
        if len(self.blocks) == 1:
            return [task(self.geom, meta, *arrays)]
        outs = None
        for lo, hi, g in self.blocks:
            part = task(g, meta, *(a[lo:hi] for a in arrays))
            if outs is None:
                outs = tuple(np.empty((self.mesh.nelem,) + p.shape[1:], p.dtype)
                             for p in part)
            for o, p in zip(outs, part):
                o[lo:hi] = p
        return [outs]

    def _dss(self, fields: list[tuple], stage: int, slot: int) -> list[tuple]:
        """DSS every field; C-contiguous, as the N-shard exchange returns
        them (a later reduction rounds by memory layout)."""
        vector, g = 4 + self._levels, self.geom
        return [tuple(np.ascontiguousarray(
                    g.dss_vector(f) if f.ndim == vector else g.dss(f))
                      for f in fs) for fs in fields]

    def _mesh_sum(self, per_elem: list[np.ndarray]) -> np.ndarray:
        rows, = per_elem
        return sum_elements(rows)

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
    outs = model._dss(model._fanout(
        dycore.prim_stage_task, {"dt": dt},
        [(b.v, b.T, b.dp3d, p.v, p.T, p.dp3d) for b, p in zip(bases, points)]),
        stage, slot=0)
    model._rank_spans("rk_stage", t0s, stage=stage, step=model.step_count)
    return [ElementState(v=v, T=T, dp3d=dp, qdp=b.qdp)
            for b, (v, T, dp) in zip(bases, outs)]


def _dss_stack(model, stacks: list[np.ndarray], slot: int) -> list[np.ndarray]:
    """DSS (E_r, Q, L, n, n) tracer stacks in one synchronisation, (Q, L)
    folded into the level axis."""
    Q, L, n, _ = stacks[0].shape[1:]
    out = model._dss([(s.reshape(len(s), Q * L, n, n),) for s in stacks],
                     stage=4, slot=slot)
    return [o.reshape(len(o), Q, L, n, n) for o, in out]


def euler_step_subcycled(model, states: list) -> None:
    """Tracer advection: ``tracer_subcycles`` SSP-RK2 steps of each shard's
    whole tracer stack, a DSS after each stage and after the limiter,
    whose global mass fixer is the one ``_mesh_sum``.  The closing DSS
    restores the edge continuity the elementwise rescale breaks (a
    positive-weighted average of non-negative values stays
    non-negative), which keeps the next flux-form divergence exactly
    conservative.  Replaces each
    state's ``qdp``; a stage's per-shard list is dropped once the next
    has consumed it (peak RSS)."""
    t0s = model._clocks()
    sub = model.cfg.tracer_subcycles
    meta = {"sdt": model.dt / sub}
    vs, qdps = [s.v for s in states], [s.qdp for s in states]
    for slot0 in range(0, 3 * sub, 3):
        st1 = _dss_stack(model, [o[0] for o in model._fanout(
            dycore.prim_euler_stage1_task, meta, list(zip(qdps, vs)))], slot0)
        st2 = _dss_stack(model, [o[0] for o in model._fanout(
            dycore.prim_euler_stage2_task, meta, list(zip(qdps, st1, vs)))], slot0 + 1)
        del st1
        lim = model._fanout(dycore.prim_limit_task, meta, [(a,) for a in st2])
        del st2
        before, after = model._mesh_sum([np.stack(o[1:], axis=1) for o in lim])
        scale = restoring_scale(before, after)
        qdps = _dss_stack(
            model, [o[0] * scale[None, ..., None, None] for o in lim], slot0 + 2)
        del lim
    for s, qdp in zip(states, qdps):
        s.qdp = qdp
    model._rank_spans("euler_step", t0s, step=model.step_count)


def biharmonic(model, task, fields: list[tuple], slot0: int) -> list[tuple]:
    """The weak biharmonic of every shard's tuple of fields: two laplacian
    rounds of ``task``, each one fan-out and one DSS of all the fields."""
    lap = model._dss(model._fanout(task, {}, fields), stage=5, slot=slot0)
    bih = model._fanout(task, {}, lap)
    del lap
    return model._dss(bih, stage=5, slot=slot0 + 1)


def advance_hypervis(model, states: list) -> None:
    """Hyperviscosity on T, v and dp3d over one step, in the stable number
    of subcycles (:func:`~repro.homme.hypervis.hypervis_stable_subcycles`)."""
    t0s = model._clocks()
    sub_dt = model.dt / model._hv_subcycles
    for slot0 in range(0, 2 * model._hv_subcycles, 2):
        for s, (bih_T, bih_v, bih_dp) in zip(states, biharmonic(
                model, dycore.prim_laplace_task, [(s.T, s.v, s.dp3d) for s in states],
                slot0)):
            s.T = s.T - sub_dt * model.nu * bih_T
            s.v = s.v - sub_dt * model.nu * bih_v
            s.dp3d = s.dp3d - sub_dt * model.nu * bih_dp
    model._rank_spans("hypervis", t0s, step=model.step_count)


class _PrimRecipe:
    """The primitive-equation step, for any layout."""

    _levels = True
    _fields = ("v", "T", "dp3d", "qdp")

    def _prim_init(self, cfg: ModelConfig, mesh: CubedSphereMesh,
                   state: ElementState, dt: float, forcing) -> None:
        """Check the initial state against mesh and configuration and set
        the recipe's knobs — before a layout builds anything costly."""
        if cfg.ne != mesh.ne:
            raise KernelError("mesh resolution disagrees with configuration")
        state.check_consistent()
        want = (mesh.nelem, cfg.qsize, cfg.nlev, mesh.np, mesh.np)
        if state.qdp.shape != want:
            raise KernelError(
                f"initial state qdp has shape {state.qdp.shape}; mesh and "
                f"configuration need (nelem, qsize, nlev, np, np) = {want}")
        self.cfg = cfg
        self.dt = check_dt(dt)
        self.forcing = forcing
        self.nu = nu_for_mesh(mesh)
        #: Hyperviscosity sweeps per step (the explicit stability rule).
        self._hv_subcycles = hypervis_stable_subcycles(
            self.dt, self.nu, cfg.ne, mesh.radius)

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
        euler_step_subcycled(self, s3)
        advance_hypervis(self, s3)
        self.step_count += 1
        if self.step_count % RSPLIT == 0:
            s3 = [vertical_remap(s) for s in s3]
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
        self._prim_init(cfg, mesh, state, cfg.dt_dynamics if dt is None else dt,
                        forcing)
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
