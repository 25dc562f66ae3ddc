"""The N-shard layout: the step recipes over simulated MPI ranks.

The end-to-end demonstration of the communication redesign: the same
step recipes the whole-mesh models run (:mod:`repro.homme.timestep`,
:mod:`repro.homme.shallow_water`) — one recipe, two layouts — with the
mesh partitioned across simulated MPI ranks and every DSS run on the
exchange plan of :class:`~repro.homme.bndry.HaloExchanger`: each shard
packs and sums through its share of the plan, and the exchange's pack,
send, (overlap), receive and unpack are charged to the ranks' clocks —
one exchange per synchronisation point, every field of it in one
message per neighbour.  Scalar fields exchange
directly; vectors exchange as the three component planes of the
frame-free Cartesian tangent representation
(:meth:`ElementGeometry.to_cartesian_planes` /
:meth:`~ElementGeometry.from_cartesian_planes`, as the one-shard layout
does).

The distributed trajectory is the serial model's bit for bit at any
rank count (the exchange sums what the serial DSS sums, in the same
order; the tracer mass fixer's global sums run in global element
order), and the per-rank clocks expose the overlap-vs-classic timing
difference on a real integration.

The layout — partition, halo tables, SimMPI, rank groups (the shards),
the resident arena a pool's shard arrays live in, the engine built
around their geometries, the calls a recipe makes (every DSS one engine
call of two-stage shard tasks inside one exchange, ``_mesh_sum``),
tracing and lifecycle —
lives once in :class:`_DistributedModel`, on the snapshot every layout
shares (:class:`repro.homme.timestep._Layout`); each public class is a
recipe on it plus its initial state.
"""

from __future__ import annotations

import numpy as np

from ..backends.functional_exec import homme_execution
from ..errors import KernelError
from ..mesh.cubed_sphere import CubedSphereMesh
from ..mesh.partition import SFCPartition
from ..network.simmpi import SimMPI, rank_track
from ..obs.tracer import NULL_TRACER
from ..parallel import dycore
from ..parallel.engine import ParallelEngine, worker_count
from ..parallel.resident import Arena, locate
from .bndry import HaloExchanger, exchange_tag
from .element import ElementGeometry
from .euler import sum_elements
from . import timestep
from .shallow_water import SWState, _SWRecipe, williamson2_initial
from .timestep import _PrimRecipe


#: The ``engine_kwargs`` a distributed model passes to its engine: the
#: supervision knobs (workers, faults, contexts and label are the model's).
ENGINE_KNOBS = frozenset(
    {"heartbeat_timeout", "result_timeout", "max_respawns", "profile_hz"})

#: A pool's arena, in multiples of the model state's bytes: address space
#: for the state and every stage array and exchange buffer a step keeps
#: alive at once (only what is written is backed by memory).
ARENA_STATES = 16


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


def rank_groups(offsets: list[int], state, workers: int) -> list[tuple[int, int]]:
    """``(first rank, end rank)`` of each run of consecutive ranks (rank
    ``r`` owns plan elements ``offsets[r]:offsets[r + 1]``) merged while
    it fits one element block of ``state`` (:func:`timestep.block_elements`,
    the one-shard layout's rule) and ``E // workers`` elements, so a pool
    has a group per worker; a rank over that is a group of its own."""
    cap = min(timestep.block_elements(state),
              max(1, offsets[-1] // max(1, workers)))
    spans, r0 = [], 0
    for r in range(1, len(offsets) - 1):
        if offsets[r + 1] - offsets[r0] > cap:
            spans.append((r0, r))
            r0 = r
    return [*spans, (r0, len(offsets) - 1)]


class _DistributedModel(timestep._Layout):
    """What every rank-distributed model is made of.

    Construction partitions the mesh, builds the halo tables and the
    simulated communicator, and merges consecutive ranks into the shards
    the recipe steps (:attr:`groups`, :func:`rank_groups`; a pool gets a
    shard per worker).  ``states[g]`` holds shard ``g``'s elements
    contiguous in the exchange plan's order, ``geoms[g]`` is that row
    range of one :class:`ElementGeometry` over the plan
    (:attr:`plan_geom`), and a rank is a row range of its shard
    (:meth:`rank_states`).  Only the shard geometries are warmed (workers
    inherit their memoized operands copy-on-write) and the engine is
    built around them: context ``g`` is shard ``g``, and with its
    shard-affinity dispatch a worker only ever touches (and faults in)
    the shards pinned to its slot.  ``workers <= 1`` makes the engine
    in-process.  On a pool every shard array — the state from
    construction on, and whatever a task writes — lives in :attr:`arena`
    (:mod:`repro.parallel.resident`), mapped by every worker, so tasks
    name them by reference.  The one ``faults`` injector goes to SimMPI
    and to the engine alike (its worker schedule, DESIGN.md §12);
    ``engine_kwargs`` passes the supervision knobs (:data:`ENGINE_KNOBS`)
    to :class:`~repro.parallel.engine.ParallelEngine`, and any other key
    raises :class:`KernelError` before anything is built.

    Subclasses set ``_label``, pass the whole-mesh initial state, and
    take ``_fields`` (prognostic array names, in snapshot-key order),
    ``_levels`` (whether fields carry a level axis after the element
    axis) and ``step()`` from their recipe.
    """

    _label: str
    _levels: bool
    #: Per-rank simulated kernel seconds charged around each exchange.
    _bc: list[float] | None = None
    _ic: list[float] | None = None

    def __init__(self, mesh: CubedSphereMesh, nranks: int, mode: str, faults,
                 tracer, workers: int,
                 engine_kwargs: dict | None, exec_path: str, init,
                 combine: str = "flat") -> None:
        if mode not in ("overlap", "classic"):
            raise KernelError(f"unknown exchange mode {mode!r}")
        odd = sorted(set(engine_kwargs or {}) - ENGINE_KNOBS)
        if odd:
            raise KernelError(
                f"engine_kwargs takes only the supervision knobs "
                f"{sorted(ENGINE_KNOBS)}, not {odd[0]!r}")
        warm = homme_execution(exec_path).warm  # fails fast on unknown paths
        self.workers = worker_count(workers)
        self.exec_path = exec_path
        self.mesh = mesh
        self.nranks = nranks
        self.mode = mode
        self.tracer = NULL_TRACER if tracer is None else tracer
        # The communicator first: it checks ``combine`` before the
        # partition and halo tables cost anything.
        self.mpi = SimMPI(nranks, faults=faults, tracer=self.tracer,
                          allreduce_algorithm=combine)
        self.part = SFCPartition(mesh.ne, nranks)
        self.hx = HaloExchanger(mesh, self.part)
        self.plan_geom = ElementGeometry(mesh, self.hx.plan_elems)

        off, elems = self.hx.elem_offsets, self.hx.plan_elems
        #: ``(first rank, end rank)`` of every shard, in rank order.
        self.groups = rank_groups(off, init, self.workers)
        rows = [(off[r0], off[r1]) for r0, r1 in self.groups]
        self.geoms = [self.plan_geom.rows(lo, hi) for lo, hi in rows]
        state_bytes = sum(getattr(init, f).nbytes for f in self._fields)
        #: A pool's shard arrays live here, mapped by every worker it forks.
        self.arena = Arena(ARENA_STATES * state_bytes) if self.workers > 1 else None
        #: On a pool, the flat buffer every DSS packs into and sums from,
        #: carved before any other array so a full arena cannot deny it: a
        #: DSS bundles at most one field shaped like each state field, and
        #: a vector's Cartesian form is 3/2 of its bytes.
        self._dss_buf = (None if self.arena is None
                         else self.arena.empty((3 * state_bytes // 16,)))
        self.states = []
        for (lo, hi), g in zip(rows, self.geoms):
            g.dss_plan = self.hx.shard_plan(lo, hi)
            warm(g)
            state = {}
            for f in self._fields:
                a = getattr(init, f)
                shape = (hi - lo,) + a.shape[1:]
                state[f] = (np.empty(shape) if self.arena is None
                            else self.arena.empty(shape))
                np.take(a, elems[lo:hi], axis=0, out=state[f])
            self.states.append(type(init)(**state))
        self.engine = ParallelEngine(
            workers=self.workers, contexts=self.geoms, tracer=self.tracer,
            label=self._label, faults=faults, **(engine_kwargs or {}),
        )

    def _rank_rows(self, per_shard: list[np.ndarray]) -> list[np.ndarray]:
        """Every rank's rows of per-shard (E_g, ...) arrays, as views, in
        rank order."""
        off = self.hx.elem_offsets
        return [a[off[r] - off[r0]:off[r + 1] - off[r0]]
                for (r0, r1), a in zip(self.groups, per_shard)
                for r in range(r0, r1)]

    def rank_states(self) -> list:
        """Every rank's state, its arrays row views of its shard's: a
        write through one is a write into the shard, and a step
        overwrites them — keep a :meth:`snapshot` instead."""
        per_field = [self._rank_rows([getattr(s, f) for s in self.states])
                     for f in self._fields]
        return [type(self.states[0])(**dict(zip(self._fields, arrays)))
                for arrays in zip(*per_field)]

    def _resident(self, outs) -> tuple:
        """Where a task writes the results that replace ``outs`` (arrays,
        or shapes for fresh memory): the arrays themselves when a task may
        write them (:func:`~repro.homme.timestep.writable`, and on a pool
        lying in its arena); else, on a pool, fresh resident arrays of
        their shapes; else — in process, or while arrays a caller holds
        fill the arena — none: the task's own arrays, which travel back
        by copy."""
        if timestep.writable(outs) and (self.arena is None or all(
                locate(o, [self.arena.id]) is not None for o in outs)):
            return tuple(outs)
        if self.arena is None:
            return ()
        try:
            return tuple(self.arena.empty(getattr(o, "shape", o)) for o in outs)
        except KernelError:
            return ()

    # -- distributed DSS ----------------------------------------------------------

    def _pack_and_sum(self, per_shard_arrays, rest, meta, stage: int,
                      slot: int) -> list[tuple]:
        """A DSS as one exchange and one call of two-stage shard tasks
        (:mod:`repro.parallel.dycore`): SimMPI charges the exchange from
        its row size, every shard packs its rows of one flat buffer, and
        — past the batch's barrier — every shard sums its slots and
        finishes into ``rest``."""
        cols = meta["cols"]
        self.hx.exchange(
            self.mpi, 8 * cols, mode=self.mode, boundary_compute=self._bc,
            inner_compute=self._ic, tag=exchange_tag(self.step_count, stage, slot))
        size = self.mesh.nelem * self.mesh.np ** 2 * cols
        buf = np.empty(size) if self._dss_buf is None else self._dss_buf[:size]
        return self._fanout(
            (dycore.pack_task, dycore.sum_task), meta,
            [(*arrays, buf, *r) for arrays, r in zip(per_shard_arrays, rest)])

    # -- distributed global sum ---------------------------------------------------

    def _mesh_sum(self, per_elem: list[np.ndarray]) -> np.ndarray:
        """Sum per-shard (E_g, ...) per-element rows over the whole mesh.

        Every rank ends up with the sum in global element order — the
        one-shard layout's, whatever the partition — as CESM's
        ``repro_sum`` stands in for a plain reduction; each column is
        summed on its own, so stacking sums changes no bit.  What travels
        is still one row block per rank, and that is what SimMPI charges.
        """
        per_rank = self._rank_rows(per_elem)
        self.mpi.allreduce([rows.sum(axis=0) for rows in per_rank])
        return sum_elements(self.hx.gather(per_rank))

    # -- per-shard task dispatch --------------------------------------------------

    def _fanout(self, task, meta_extra: dict,
                per_shard_arrays: list[tuple]) -> list[tuple]:
        """Run ``task`` (or a tuple of stages) once per shard — one
        batch, in shard order; one tuple of output arrays per shard."""
        return self.engine.run(task, [
            ({"ctx": g, "shard": g, **meta_extra, "path": self.exec_path},
             arrays)
            for g, arrays in enumerate(per_shard_arrays)])

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

    # -- global state -------------------------------------------------------------

    def gather_state(self):
        """Assemble the global state (for comparison with serial runs)."""
        ranks = self.rank_states()
        return type(ranks[0])(**{
            f: self.hx.gather([getattr(s, f) for s in ranks])
            for f in self._fields})


class DistributedShallowWater(_SWRecipe, _DistributedModel):
    """The shallow-water recipe over ``nranks`` simulated MPI ranks.

    ``workers > 1`` runs each shard's tendency computation on a real
    core through :class:`repro.parallel.engine.ParallelEngine`; the
    trajectory is bitwise identical to ``workers=0``.  Simulated clocks
    are unaffected either way — SimMPI remains the timing model.

    ``nu > 0`` adds the recipe's hyperviscosity (off by default).
    ``exec_path`` names the element-local kernel set each shard task
    runs (``"fused"`` default, the single-pass contraction kernels;
    ``"batched"``, the operator-library reference); the DSS structure
    is identical across paths.
    """

    _label = "dist-sw"
    #: Simulated kernel seconds per element, charged around each exchange.
    _cost = 1.0e-5

    def __init__(
        self,
        mesh: CubedSphereMesh,
        nranks: int,
        dt: float | None = None,
        mode: str = "overlap",
        faults=None,
        tracer=None,
        workers: int = 0,
        pipeline: bool = False,  # ignored: benchmarks/step/adapter.py passes it
        engine_kwargs: dict | None = None,
        exec_path: str = "fused",
        nu: float = 0.0,
    ) -> None:
        init = williamson2_initial(mesh)
        init = self._sw_init(mesh, init, dt, nu)  # before a pool is started
        super().__init__(mesh, nranks, mode, faults, tracer, workers,
                         engine_kwargs, exec_path, init)
        # Simulated kernel cost attribution for the overlap window.
        self._bc = [
            self._cost * len(self.part.boundary_elements(r)) for r in range(nranks)
        ]
        self._ic = [
            self._cost * len(self.part.inner_elements(r)) for r in range(nranks)
        ]

    def total_mass(self) -> float:
        s = self.gather_state()
        return float(np.sum(self.mesh.spheremp * s.h))


class DistributedPrimitiveEquations(_PrimRecipe, _DistributedModel):
    """The primitive-equation recipe across simulated MPI ranks.

    The :class:`~repro.homme.timestep.PrimitiveEquationModel` step —
    RK3 + tracers + hyperviscosity + remap + forcing — with every DSS
    routed through ``bndry_exchangev``.  Column-local work (pressure
    scans, vertical remap, physics) needs no communication — exactly the
    structure the paper exploits; ``forcing`` runs on each shard's state
    and geometry in turn.  Trajectories are the serial model's bit for
    bit at any rank count (verified in the tests).

    ``workers > 1`` fans the per-shard tendency, tracer-advection, and
    hyperviscosity work across real cores (see
    :mod:`repro.parallel.dycore`); the trajectory is bitwise identical
    to ``workers=0``.

    ``exec_path`` names the element-local kernel set the per-shard tasks
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

    _label = "dist-prim"

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
        forcing=None,
    ) -> None:
        init_state = self._prim_init(cfg, mesh, init_state, dt, forcing)
        super().__init__(mesh, nranks, mode, faults, tracer, workers,
                         engine_kwargs, exec_path, init_state, combine)
        self.combine = combine
