"""Rank-distributed integrations over SimMPI (shallow water and the
full primitive equations).

The end-to-end demonstration of the communication redesign: the same
RK3 shallow-water step as :class:`~repro.homme.shallow_water.ShallowWaterModel`,
but with the mesh partitioned across simulated MPI ranks and every DSS
performed by :class:`~repro.homme.bndry.HaloExchanger` — pack, send,
(overlap), receive, unpack — one exchange per synchronisation point,
every field of it in one message per neighbour.  Scalar fields exchange
directly; vectors exchange in the frame-free Cartesian tangent
representation (the same device as :meth:`ElementGeometry.dss_vector`).

The distributed trajectory is the serial model's bit for bit at any
rank count (the exchange sums what the serial DSS sums, in the same
order; the tracer mass fixer's global sums run in global element
order), and the per-rank clocks expose the overlap-vs-classic timing
difference on a real integration.

Everything the two models share — partition, halo tables, SimMPI,
per-rank geometry, the engine built around those geometries, the
exchange, the per-rank task fan-out, tracing, lifecycle and
checkpointing — lives once in :class:`_DistributedModel`; each public
class adds its initial state, its vector-DSS layout and its step recipe.
"""

from __future__ import annotations

import numpy as np

from .. import constants as C
from ..backends.functional_exec import homme_execution
from ..errors import KernelError
from ..mesh.cubed_sphere import CubedSphereMesh
from ..mesh.partition import SFCPartition
from ..network.simmpi import SimMPI, rank_track
from ..obs.tracer import NULL_TRACER
from ..parallel.dycore import (
    prim_euler_stage1_task,
    prim_euler_stage2_task,
    prim_laplace_task,
    prim_limit_task,
    prim_stage_task,
    sw_stage_task,
)
from ..parallel.engine import ParallelEngine
from . import remap
from .bndry import HaloExchanger, exchange_tag
from .element import ElementGeometry, check_dt
from .euler import restoring_scale, sum_elements
from .hypervis import hypervis_stable_subcycles, nu_for_mesh
from .shallow_water import SWState, williamson2_initial
from .timestep import RSPLIT


def charge_calibrated_compute(model, steps: int) -> None:
    """Charge calibrated per-element kernel time to every rank's clock.

    The distributed models' SimMPI clocks measure communication (halo
    exchange, pack/unpack memcpy, allreduce combines); per-element
    kernel compute is charged here from the calibrated
    :class:`~repro.perf.scaling.HommePerfModel`, so scaling studies
    built on ``max_rank_time()`` reflect a full step rather than comm
    alone.  The charge is additive (call it after ``run_steps``),
    exactly deterministic, and proportional to each rank's actual shard
    size — SFC load imbalance shows up in the slowest clock.
    """
    from ..perf.scaling import HommePerfModel

    perf = HommePerfModel(model.cfg.ne, model.nranks,
                          nlev=model.cfg.nlev, qsize=model.cfg.qsize)
    per_elem = perf.compute_seconds / perf.elems_per_proc
    for r in range(model.nranks):
        nelem = len(model.part.rank_elements(r))
        model.mpi.compute(r, per_elem * nelem * steps)


class _DistributedModel:
    """What every rank-distributed model is made of.

    Construction partitions the mesh, builds the halo tables, the
    simulated communicator and one :class:`ElementGeometry` per rank,
    warms the execution path's memoized operands (so workers inherit
    them copy-on-write) and builds the model's own engine around those
    geometries: context ``r`` is rank ``r``'s shard.  ``workers <= 1``
    makes that engine in-process.  With the engine's shard-affinity
    dispatch a worker only ever touches (and faults in) the shards
    pinned to its slot.
    ``engine_kwargs`` passes straight through to
    :class:`~repro.parallel.engine.ParallelEngine` — the supervision
    and chaos knobs of DESIGN.md §12.

    Subclasses set ``_fields`` (prognostic array names of one rank's
    state, in snapshot-key order), ``_label`` and ``_levels`` (whether
    fields carry a level axis after the element axis), fill
    ``self.states`` and define ``step()``.
    """

    _fields: tuple[str, ...]
    _label: str
    _levels: bool
    #: Per-rank simulated kernel seconds charged around each exchange.
    _bc: list[float] | None = None
    _ic: list[float] | None = None

    def __init__(self, mesh: CubedSphereMesh, nranks: int, mode: str, faults,
                 tracer, workers: int,
                 engine_kwargs: dict | None, exec_path: str,
                 combine: str = "flat") -> None:
        if mode not in ("overlap", "classic"):
            raise KernelError(f"unknown exchange mode {mode!r}")
        warm = homme_execution(exec_path).warm  # fails fast on unknown paths
        self.exec_path = exec_path
        self.mesh = mesh
        self.nranks = nranks
        self.mode = mode
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.part = SFCPartition(mesh.ne, nranks)
        self.hx = HaloExchanger(mesh, self.part)
        self.mpi = SimMPI(nranks, faults=faults, tracer=self.tracer,
                          allreduce_algorithm=combine)
        self.geoms = [ElementGeometry(mesh, e) for e in self.hx.rank_elems]
        self.t = 0.0
        self.step_count = 0
        self._epoch = 0

        self.workers = max(0, int(workers))
        for g in self.geoms:
            warm(g)
        self.engine = ParallelEngine(
            workers=self.workers, contexts=self.geoms, tracer=self.tracer,
            label=self._label, **(engine_kwargs or {}),
        )

    # -- distributed DSS ----------------------------------------------------------

    def _dss(self, fields: list[tuple], stage: int, slot: int) -> list[tuple]:
        """DSS every rank's tuple of fields in one exchange.

        A field with one axis more than a scalar is a contravariant
        (..., 2) vector and crosses in Cartesian form; level axes move
        last for the exchange and come back C-contiguous, so the
        state's memory layout — and therefore every later reduction's
        rounding — is the one a restored checkpoint has.
        """
        vector = 4 + self._levels

        def out(g, f):
            w = g.to_cartesian(f) if f.ndim == vector else f
            return np.moveaxis(w, 1, 3) if self._levels else w

        def back(g, o, f):
            if self._levels:
                o = np.moveaxis(o, 3, 1)
            if f.ndim == vector:
                return g.from_cartesian(o)
            return np.ascontiguousarray(o)

        outs, _ = self.hx.exchange(
            [tuple(out(g, f) for f in fs) for g, fs in zip(self.geoms, fields)],
            self.mpi,
            mode=self.mode,
            boundary_compute=self._bc,
            inner_compute=self._ic,
            tag=exchange_tag(self.step_count, stage, slot, self._epoch),
        )
        return [tuple(back(g, o, f) for o, f in zip(os, fs))
                for g, os, fs in zip(self.geoms, outs, fields)]

    # -- per-rank task dispatch ---------------------------------------------------

    def _fanout(self, task, meta_extra: dict,
                per_rank_arrays: list[tuple]) -> list[tuple]:
        """Run ``task`` once per rank — one batch of whole-rank tasks, in
        rank order; one tuple of output arrays per rank."""
        return self.engine.run(task, [
            ({"ctx": r, "shard": r, **meta_extra, "path": self.exec_path},
             arrays)
            for r, arrays in enumerate(per_rank_arrays)])

    # -- tracing ------------------------------------------------------------------

    def _clocks(self) -> list[float]:
        return [self.mpi.now(r) for r in range(self.nranks)]

    def _rank_spans(self, name: str, t0s: list[float] | None, **args) -> None:
        """One model span per rank track from ``t0s[r]`` to rank ``r``'s
        clock now — or an instant at it when ``t0s`` is None."""
        if not self.tracer.enabled:
            return
        for r in range(self.nranks):
            if t0s is None:
                self.tracer.instant(rank_track(r), name, self.mpi.now(r),
                                    cat="model", **args)
            else:
                self.tracer.span_at(rank_track(r), name, t0s[r],
                                    self.mpi.now(r), cat="model", **args)

    # -- lifecycle ----------------------------------------------------------------

    def run_steps(self, n: int) -> None:
        for _ in range(n):
            self.step()

    def close(self) -> None:
        """Stop the worker pool (if any)."""
        self.engine.close()

    def health(self, monitor=None):
        """Run the health rules over the engine (DESIGN.md §13.4)."""
        return self.engine.health(monitor)

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def max_rank_time(self) -> float:
        """Simulated completion time of the slowest rank."""
        return self.mpi.max_time()

    # -- checkpointing ------------------------------------------------------------

    def _state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{f}_{r}": getattr(s, f)
                for r, s in enumerate(self.states) for f in self._fields}

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
        the model untouched.  The tag epoch is *not* restored — it
        strictly increases so a replayed step can never match a stale
        in-flight message from the aborted attempt (which is also purged
        outright).
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
        self._epoch += 1
        self.mpi.purge_pending()
        for r, s in enumerate(self.states):
            for f in self._fields:
                setattr(s, f, new[f"{f}_{r}"].copy())

    def gather_state(self):
        """Assemble the global state (for comparison with serial runs)."""
        return type(self.states[0])(**{
            f: self.hx.gather([getattr(s, f) for s in self.states])
            for f in self._fields})


class DistributedShallowWater(_DistributedModel):
    """Shallow-water RK3 over ``nranks`` simulated MPI ranks.

    ``workers > 1`` runs each rank's tendency computation on a real
    core through :class:`repro.parallel.engine.ParallelEngine`; the
    trajectory is bitwise identical to ``workers=0``.  Simulated clocks
    are unaffected either way — SimMPI remains the timing model.

    ``exec_path`` names the element-local kernel set each rank task
    runs (``"fused"`` default, the single-pass contraction kernels;
    ``"batched"``, the operator-library reference); the DSS structure
    is identical across paths.
    """

    _fields = ("h", "v")
    _label = "dist-sw"
    _levels = False

    def __init__(
        self,
        mesh: CubedSphereMesh,
        nranks: int,
        dt: float | None = None,
        mode: str = "overlap",
        compute_cost_per_element: float = 1.0e-5,
        faults=None,
        tracer=None,
        workers: int = 0,
        pipeline: bool = False,  # ignored: benchmarks/step/adapter.py passes it
        engine_kwargs: dict | None = None,
        exec_path: str = "fused",
    ) -> None:
        if dt is not None:
            check_dt(dt)  # before a pool is started
        super().__init__(mesh, nranks, mode, faults, tracer, workers,
                         engine_kwargs, exec_path)
        init = williamson2_initial(mesh)
        self.states = [SWState(h=init.h[e].copy(), v=init.v[e].copy())
                       for e in self.hx.rank_elems]
        if dt is None:
            c = float(np.sqrt(C.GRAVITY * init.h.max()))
            dx = 2 * np.pi * mesh.radius / (4 * mesh.ne * (mesh.np - 1))
            dt = 0.25 * dx / c
        self.dt = dt
        # Simulated kernel cost attribution for the overlap window.
        self._cost = compute_cost_per_element
        self._bc = [
            self._cost * len(self.part.boundary_elements(r)) for r in range(nranks)
        ]
        self._ic = [
            self._cost * len(self.part.inner_elements(r)) for r in range(nranks)
        ]

    def _stage(self, bases: list[SWState], points: list[SWState], dt: float,
               stage: int = 0) -> list[SWState]:
        t0s = self._clocks()
        outs = self._fanout(
            sw_stage_task, {"dt": dt},
            [(b.h, b.v, p.h, p.v) for b, p in zip(bases, points)])
        hvs = self._dss(outs, stage, slot=0)
        self._rank_spans("rk_stage", t0s, stage=stage, step=self.step_count)
        return [SWState(h=h, v=v) for h, v in hvs]

    def step(self) -> None:
        """One distributed RK3 step (three halo-exchange rounds)."""
        t0s = self._clocks()
        s0 = self.states
        s1 = self._stage(s0, s0, self.dt / 3.0, stage=1)
        s2 = self._stage(s0, s1, self.dt / 2.0, stage=2)
        self.states = self._stage(s0, s2, self.dt, stage=3)
        self._rank_spans("step", t0s, step=self.step_count)
        self.t += self.dt
        self.step_count += 1

    def total_mass(self) -> float:
        s = self.gather_state()
        return float(np.sum(self.mesh.spheremp * s.h))


class DistributedPrimitiveEquations(_DistributedModel):
    """The full prim_run distributed across simulated MPI ranks.

    Mirrors :class:`~repro.homme.timestep.PrimitiveEquationModel`'s RK3
    + tracer + hyperviscosity + remap step, with every DSS routed
    through ``bndry_exchangev``.  Column-local work (pressure scans,
    vertical remap, physics) needs no communication — exactly the
    structure the paper exploits.  Trajectories are the serial model's
    bit for bit at any rank count (verified in the tests).

    ``workers > 1`` fans the per-rank tendency, tracer-advection, and
    hyperviscosity work across real cores (see
    :mod:`repro.parallel.dycore`); the trajectory is bitwise identical
    to ``workers=0``.

    ``exec_path`` names the element-local kernel set the per-rank tasks
    run (``"fused"`` default, ``"batched"`` reference); the
    exchange/allreduce structure is identical across paths.

    ``combine`` selects how the tracer mass-fixer allreduces charge the
    simulated clocks: ``"flat"`` (default, the recursive-doubling
    estimate — all clocks synchronized) or ``"hierarchical"`` (the
    node → supernode → central-switch combine tree with hop-weighted
    per-level costs, mirroring TaihuLight's topology).  Reduced values
    — and therefore the trajectory — are bitwise identical either way;
    only the clock charging differs.
    """

    _fields = ("v", "T", "dp3d", "qdp")
    _label = "dist-prim"
    _levels = True

    def __init__(
        self,
        cfg,
        mesh: CubedSphereMesh,
        init_state,
        nranks: int,
        dt: float,
        mode: str = "overlap",
        faults=None,
        tracer=None,
        workers: int = 0,
        pipeline: bool = False,  # ignored: benchmarks/step/adapter.py passes it
        engine_kwargs: dict | None = None,
        exec_path: str = "fused",
        combine: str = "flat",
    ) -> None:
        if cfg.ne != mesh.ne:
            raise KernelError("mesh resolution disagrees with configuration")
        init_state.check_consistent()
        want = (mesh.nelem, cfg.qsize, cfg.nlev, mesh.np, mesh.np)
        if init_state.qdp.shape != want:
            raise KernelError(
                f"initial state qdp has shape {init_state.qdp.shape}; mesh and "
                f"configuration need (nelem, qsize, nlev, np, np) = {want}")
        self.dt = check_dt(dt)
        super().__init__(mesh, nranks, mode, faults, tracer, workers,
                         engine_kwargs, exec_path, combine)
        self.cfg = cfg
        self.combine = combine
        self.states = [
            type(init_state)(v=init_state.v[e].copy(), T=init_state.T[e].copy(),
                             dp3d=init_state.dp3d[e].copy(),
                             qdp=init_state.qdp[e].copy())
            for e in self.hx.rank_elems
        ]
        self.nu = nu_for_mesh(mesh)
        #: Hyperviscosity sweeps per step — the serial model's stability rule.
        self._hv_subcycles = hypervis_stable_subcycles(
            dt, self.nu, cfg.ne, mesh.radius)

    def _dss_stack(self, stacks, slot):
        """DSS (E_r, Q, L, n, n) tracer stacks in one exchange, (Q, L) folded
        into the level axis as the serial ``euler._dss_all`` folds them."""
        Q, L, n, _ = stacks[0].shape[1:]
        out = self._dss([(s.reshape(len(s), Q * L, n, n),) for s in stacks],
                        stage=4, slot=slot)
        return [o.reshape(len(o), Q, L, n, n) for o, in out]

    def _mesh_sum(self, per_elem: list[np.ndarray]) -> np.ndarray:
        """Sum per-rank (E_r, ...) per-element rows over the whole mesh.

        Every rank ends up with the sum in global element order — the
        serial limiter's, whatever the partition — as CESM's
        ``repro_sum`` stands in for a plain reduction; each column is
        summed on its own, so stacking sums changes no bit.  What travels
        is still one row block per rank, and that is what SimMPI charges.
        """
        self.mpi.allreduce([rows.sum(axis=0) for rows in per_elem])
        return sum_elements(self.hx.gather(per_elem))

    # -- one distributed dynamics step ------------------------------------------------

    def _rk_stage(self, bases, points, dt, stage=0):
        t0s = self._clocks()
        outs = self._fanout(
            prim_stage_task, {"dt": dt},
            [(b.v, b.T, b.dp3d, p.v, p.T, p.dp3d)
             for b, p in zip(bases, points)])
        outs = self._dss(outs, stage, slot=0)
        self._rank_spans("rk_stage", t0s, stage=stage, step=self.step_count)
        # Nothing writes a qdp in place, so every stage shares the base's.
        return [type(b)(v=v, T=T, dp3d=dp, qdp=b.qdp)
                for b, (v, T, dp) in zip(bases, outs)]

    def _hypervis_sweep(self, s3, slot0):
        """The biharmonic of T, v and dp3d: two laplacian rounds.

        Each round is one pool dispatch computing all three field
        laplacians per rank and one exchange of all three; the exchanges
        stay on the driver.  Returns per rank ``(T, v, dp3d)``.
        """
        lap = self._dss(self._fanout(prim_laplace_task, {},
                                     [(s.T, s.v, s.dp3d) for s in s3]),
                        stage=5, slot=slot0)
        bih = self._fanout(prim_laplace_task, {}, lap)
        del lap
        return self._dss(bih, stage=5, slot=slot0 + 1)

    def step(self) -> None:
        dt = self.dt
        step_t0s = self._clocks()
        s0 = self.states
        s1 = self._rk_stage(s0, s0, dt / 3.0, stage=1)
        s2 = self._rk_stage(s0, s1, dt / 2.0, stage=2)
        s3 = self._rk_stage(s0, s2, dt, stage=3)

        # Tracer advection: the serial euler_step on each rank's whole tracer
        # stack, an exchange where it has a DSS.  A stage's per-rank list is
        # dropped once the next stage has consumed it (peak RSS).
        euler_t0s = self._clocks()
        sub = self.cfg.tracer_subcycles
        meta = {"sdt": dt / sub}
        vs, qdps = [s.v for s in s3], [s.qdp for s in s3]
        for slot0 in range(0, 3 * sub, 3):
            st1 = self._dss_stack([o[0] for o in self._fanout(
                prim_euler_stage1_task, meta, list(zip(qdps, vs)))], slot0)
            st2 = self._dss_stack([o[0] for o in self._fanout(
                prim_euler_stage2_task, meta, list(zip(qdps, st1, vs)))], slot0 + 1)
            del st1
            lim = self._fanout(prim_limit_task, meta, [(a,) for a in st2])
            del st2
            before, after = self._mesh_sum(
                [np.stack(o[1:], axis=1) for o in lim])
            scale = restoring_scale(before, after)
            qdps = self._dss_stack(
                [o[0] * scale[None, ..., None, None] for o in lim], slot0 + 2)
            del lim
        for s, qdp in zip(s3, qdps):
            s.qdp = qdp
        self._rank_spans("euler_step", euler_t0s, step=self.step_count)

        # Hyperviscosity, subcycled like the serial advance_hypervis.
        hv_t0s = self._clocks()
        sub_dt = dt / self._hv_subcycles
        for slot0 in range(0, 2 * self._hv_subcycles, 2):
            for s, (bih_T, bih_v, bih_dp) in zip(
                    s3, self._hypervis_sweep(s3, slot0)):
                s.T = s.T - sub_dt * self.nu * bih_T
                s.v = s.v - sub_dt * self.nu * bih_v
                s.dp3d = s.dp3d - sub_dt * self.nu * bih_dp
        self._rank_spans("hypervis", hv_t0s, step=self.step_count)

        self.step_count += 1
        if self.step_count % RSPLIT == 0:
            for r in range(self.nranks):
                s3[r] = remap.vertical_remap(s3[r])
            self._rank_spans("vertical_remap", None, step=self.step_count)
        self.t += dt
        self.states = s3
        self._rank_spans("step", step_t0s, step=self.step_count - 1)
