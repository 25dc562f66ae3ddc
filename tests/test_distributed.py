"""Tests for the distributed models and the RH wave."""

import gc
import re
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.errors import KernelError, SimMPIError
from repro.homme import distributed as dist_mod
from repro.homme import timestep
from repro.homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from repro.homme.element import POSITIVE_FIELDS, ElementGeometry
from repro.homme.hypervis import nu_for_ne
from repro.homme.shallow_water import (
    ShallowWaterModel,
    rossby_haurwitz_initial,
    williamson2_initial,
)
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh import CubedSphereMesh
from repro.network import SimMPI


@pytest.fixture(scope="module")
def mesh4():
    return CubedSphereMesh(ne=4)


class TestDistributedMatchesSerial:
    def test_five_steps_match_to_roundoff(self, mesh4):
        """Not a bit of roundoff between them."""
        serial = ShallowWaterModel(mesh4)
        dist = DistributedShallowWater(mesh4, nranks=6, dt=serial.dt)
        for _ in range(5):
            serial.step()
        dist.run_steps(5)
        g = dist.gather_state()
        assert np.array_equal(g.h, serial.state.h)
        assert np.array_equal(g.v, serial.state.v)

    def test_classic_and_overlap_identical_numerics(self, mesh4):
        a = DistributedShallowWater(mesh4, nranks=4, mode="overlap")
        b = DistributedShallowWater(mesh4, nranks=4, mode="classic")
        a.run_steps(3)
        b.run_steps(3)
        ga, gb = a.gather_state(), b.gather_state()
        assert np.array_equal(ga.h, gb.h)
        assert np.array_equal(ga.v, gb.v)

    def test_rank_count_invariance(self, mesh4):
        a = DistributedShallowWater(mesh4, nranks=2)
        b = DistributedShallowWater(mesh4, nranks=8, dt=a.dt)
        a.run_steps(2)
        b.run_steps(2)
        assert np.array_equal(a.gather_state().h, b.gather_state().h)

    def test_mass_conserved(self, mesh4):
        dist = DistributedShallowWater(mesh4, nranks=6)
        m0 = dist.total_mass()
        dist.run_steps(4)
        assert abs(dist.total_mass() - m0) / m0 < 1e-12

    def test_clocks_advance(self, mesh4):
        dist = DistributedShallowWater(mesh4, nranks=6)
        dist.run_steps(2)
        assert dist.max_rank_time() > 0

    def test_overlap_not_slower(self, mesh4):
        """With the same compute attribution, overlap never loses."""
        on = DistributedShallowWater(mesh4, nranks=8, mode="overlap")
        off = DistributedShallowWater(mesh4, nranks=8, mode="classic")
        on.run_steps(3)
        off.run_steps(3)
        assert on.max_rank_time() <= off.max_rank_time() * 1.001

    def test_unknown_mode_rejected(self, mesh4):
        with pytest.raises(KernelError):
            DistributedShallowWater(mesh4, nranks=2, mode="magic")


class TestRossbyHaurwitz:
    def test_initial_height_range(self):
        mesh = CubedSphereMesh(ne=6)
        st = rossby_haurwitz_initial(mesh)
        # Standard case 6: geopotential height ~8,000-10,600 m.
        assert 7900 < st.h.min() < 8100
        assert 10200 < st.h.max() < 10800

    def test_wavenumber_4_structure(self):
        mesh = CubedSphereMesh(ne=6)
        st = rossby_haurwitz_initial(mesh)
        # Sample h along the equator: 4 maxima.
        eq = np.abs(mesh.lat) < 0.05
        lons = mesh.lon[eq]
        hs = st.h[eq]
        order = np.argsort(lons)
        signal = hs[order] - hs.mean()
        # Dominant Fourier mode of the equatorial signal is k=4.
        spec = np.abs(np.fft.rfft(signal))
        k = np.argmax(spec[1:]) + 1
        n_samples = len(signal)
        assert round(k / (n_samples / (2 * np.pi)) / (2 * np.pi / n_samples)) in (4,) or k == 4

    def test_stable_24h_with_hypervis(self):
        mesh = CubedSphereMesh(ne=6)
        model = ShallowWaterModel(
            mesh, state=rossby_haurwitz_initial(mesh), nu=nu_for_ne(6)
        )
        m0 = model.total_mass()
        model.run_hours(24)
        assert np.isfinite(model.state.h).all()
        assert 7500 < model.state.h.min()
        assert model.state.h.max() < 11500
        # Weak-form hyperviscosity keeps mass to roundoff.
        assert abs(model.total_mass() - m0) / m0 < 1e-11

    def test_wave_amplitude_persists(self):
        mesh = CubedSphereMesh(ne=6)
        model = ShallowWaterModel(
            mesh, state=rossby_haurwitz_initial(mesh), nu=nu_for_ne(6)
        )
        amp0 = model.state.h.max() - model.state.h.min()
        model.run_hours(12)
        amp1 = model.state.h.max() - model.state.h.min()
        assert amp1 > 0.8 * amp0


@pytest.fixture(scope="module")
def setup():
    from repro.config import ModelConfig
    from repro.homme.element import ElementGeometry, ElementState

    cfg = ModelConfig(ne=4, nlev=4, qsize=1)
    mesh = CubedSphereMesh(4)
    geom = ElementGeometry(mesh)
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(0)
    state.T = geom.dss(state.T + rng.standard_normal(state.T.shape))
    state.qdp[:, 0] = 1e-3 * state.dp3d
    return cfg, mesh, state


class TestDistributedPrimitiveEquations:
    def test_matches_serial_prim_run(self, setup):
        """The whole distributed timestep — RK3, tracers with the
        allreduce mass fixer, hyperviscosity, remap — reproduces the
        serial trajectory bit for bit."""
        from repro.homme.timestep import PrimitiveEquationModel

        cfg, mesh, state = setup
        serial = PrimitiveEquationModel(cfg, mesh=mesh, init=state.copy(), dt=600.0)
        dist = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=4, dt=600.0)
        serial.run_steps(4)  # spans a remap (rsplit = 3)
        dist.run_steps(4)
        g = dist.gather_state()
        for f in ("T", "dp3d", "v", "qdp"):
            assert np.array_equal(getattr(g, f), getattr(serial.state, f)), f

    def test_matches_serial_on_reduced_radius_sphere(self, setup):
        """Both models scale hyperviscosity to the physical grid spacing
        of a Katrina-style small planet (``nu_for_mesh``); with the
        Earth-radius coefficient the distributed T was off by 440x its
        magnitude after these two steps."""
        from repro import constants as C
        from repro.homme.timestep import PrimitiveEquationModel

        cfg, _, state = setup
        mesh = CubedSphereMesh(4, radius=C.EARTH_RADIUS / 10)
        serial = PrimitiveEquationModel(cfg, mesh=mesh, init=state.copy(), dt=30.0)
        dist = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=4, dt=30.0)
        assert dist.nu == serial.nu == nu_for_ne(40)
        serial.run_steps(2)
        dist.run_steps(2)
        g = dist.gather_state()
        for f in ("T", "dp3d", "v", "qdp"):
            assert np.array_equal(getattr(g, f), getattr(serial.state, f)), f

    @pytest.mark.parametrize("path", ["fused", "batched"])
    def test_subcycled_hyperviscosity_matches_serial(self, setup, path):
        """A ``dt`` past the explicit biharmonic limit makes the serial
        ``advance_hypervis`` take two half-``dt`` sweeps; the distributed
        step takes the same two (one full-``dt`` sweep left T off by
        1.69 K and dp3d by 721 Pa, both finite), on a pool as in-process."""
        from repro.homme.hypervis import hypervis_stable_subcycles
        from repro.homme.timestep import PrimitiveEquationModel

        cfg, mesh, state = setup
        dt = 20000.0
        serial = PrimitiveEquationModel(cfg, mesh=mesh, init=state.copy(),
                                        dt=dt, exec_path=path)
        assert hypervis_stable_subcycles(
            dt, serial.nu, cfg.ne, mesh.radius) == 2
        serial.step()
        for pool in ({}, {"workers": 2}):
            with DistributedPrimitiveEquations(
                    cfg, mesh, state.copy(), nranks=3, dt=dt, exec_path=path,
                    **pool) as dist:
                dist.step()
                g = dist.gather_state()
            for f in ("T", "dp3d", "v", "qdp"):
                assert (getattr(g, f).tobytes()
                        == getattr(serial.state, f).tobytes()), (f, pool)

    def test_forced_run_on_a_pool_matches_serial(self, setup):
        """Held–Suarez forcing runs rank by rank in the calling process; on a
        2-worker pool the forced trajectory, through a remap, is the
        serial model's bytes, and no shared memory is left behind."""
        from repro.homme.timestep import PrimitiveEquationModel
        from repro.physics import PhysicsSuite

        cfg, mesh, state = setup
        serial = PrimitiveEquationModel(cfg, mesh=mesh, init=state.copy(), dt=600.0,
                                        forcing=PhysicsSuite(("held_suarez",)))
        unforced = PrimitiveEquationModel(cfg, mesh=mesh, init=state.copy(), dt=600.0)
        serial.run_steps(3)
        unforced.run_steps(3)
        assert not np.array_equal(serial.state.T, unforced.state.T)  # it forces
        with DistributedPrimitiveEquations(
                cfg, mesh, state.copy(), nranks=3, dt=600.0, workers=2,
                forcing=PhysicsSuite(("held_suarez",))) as dist:
            dist.run_steps(3)
            g = dist.gather_state()
        assert dist.engine.leaked_shm() == []
        for f in ("T", "dp3d", "v", "qdp"):
            assert getattr(g, f).tobytes() == getattr(serial.state, f).tobytes(), f

    def test_rank_invariance(self, setup):
        cfg, mesh, state = setup
        a = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=2, dt=600.0)
        b = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=8, dt=600.0)
        a.run_steps(2)
        b.run_steps(2)
        assert np.array_equal(a.gather_state().T, b.gather_state().T)

    def test_mass_conserved(self, setup):
        cfg, mesh, state = setup
        dist = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=4, dt=600.0)
        w = mesh.spheremp[:, None]
        m0 = float(np.sum(state.dp3d * w))
        dist.run_steps(3)
        m1 = float(np.sum(dist.gather_state().dp3d * w))
        assert abs(m1 - m0) / m0 < 1e-11

    def test_tracer_mass_conserved_through_allreduce_fixer(self, setup):
        cfg, mesh, state = setup
        dist = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=4, dt=600.0)
        w = mesh.spheremp[:, None, None]
        m0 = float(np.sum(state.qdp * w))
        dist.run_steps(3)
        m1 = float(np.sum(dist.gather_state().qdp * w))
        assert abs(m1 - m0) / m0 < 1e-9

    def test_invalid_mode(self, setup):
        cfg, mesh, state = setup
        with pytest.raises(KernelError):
            DistributedPrimitiveEquations(cfg, mesh, state, nranks=2, dt=600.0, mode="x")


def rank_bytes(build) -> int:
    """Largest per-rank state array of ``build``'s models: the
    ``BLOCK_BYTES`` at which each rank is one element block."""
    state = build().states[0]
    per_elem = max(a.nbytes // len(a) for a in vars(state).values())
    return per_elem * len(state.v) // 4


@pytest.fixture(params=["sw", "prim"])
def build(request, mesh4, setup):
    """Constructor of a 4-rank model of either class from shared inputs."""
    def make(**kw):
        if request.param == "sw":
            return DistributedShallowWater(mesh4, nranks=4, **kw)
        cfg, mesh, state = setup
        return DistributedPrimitiveEquations(
            cfg, mesh, state.copy(), nranks=4, dt=600.0, **kw)
    return make


@pytest.fixture(params=["sw", "prim", "serial-sw", "serial-prim"])
def any_build(request, mesh4, setup):
    """Constructor of a model of any of the four classes from shared
    inputs: ``build``'s 4-rank models, or a serial one (rank 0 holds the
    whole mesh)."""
    cfg, mesh, state = setup
    make = {
        "sw": lambda: DistributedShallowWater(mesh4, nranks=4),
        "prim": lambda: DistributedPrimitiveEquations(
            cfg, mesh, state, nranks=4, dt=600.0),
        "serial-sw": lambda: ShallowWaterModel(mesh4),
        "serial-prim": lambda: PrimitiveEquationModel(
            cfg, mesh=mesh, init=state, dt=600.0),
    }[request.param]
    return make


def rank_elements(model) -> list[np.ndarray]:
    """Global element ids of each rank's rows, in rank order."""
    hx = getattr(model, "hx", None)
    return hx.rank_elems if hx is not None else [np.arange(model.mesh.nelem)]


def whole_state(model):
    return model.gather_state() if hasattr(model, "gather_state") else model.state


class TestSharedBase:
    """What both models inherit from the one distributed base."""

    def test_close_is_idempotent_and_with_exit_closes(self, build):
        with build(workers=2) as model:
            model.step()
            engine = model.engine
            assert list(engine.contexts) == model.geoms  # the shards
        assert not engine.active and engine.leaked_shm() == []
        model.close()
        model.close()
        assert model.engine is engine and not engine.active

    def test_no_split_contexts_without_a_pool(self, build):
        """``pipeline=True`` — the step benchmark still passes it — is
        accepted and ignored: the contexts are the shards."""
        with build(pipeline=True) as model:
            assert list(model.engine.contexts) == model.geoms
            assert not hasattr(model, "pipeline")
            model.step()

    def test_dropped_model_releases_its_contexts(self, build):
        """Nothing outside a model holds its shard geometries: dropping
        it — closed or not — frees them."""
        for close in (True, False):
            model = build()
            model.step()
            shards = [weakref.ref(g) for g in model.engine.contexts]
            if close:
                model.close()
            del model
            gc.collect()
            assert shards and [ref() for ref in shards] == [None] * len(shards)

    def test_shard_geometries_are_plan_geometry_views(self, build):
        """One geometry over the plan's element order; every shard's is a
        read-only row range of it, equal to the geometry its elements
        would build on their own, and carries the only operator tensors:
        the engine's contexts are the shard geometries, and no per-rank
        geometry is built (each would warm tensors of its own)."""
        cut, budget = [], 2 * rank_bytes(build)
        rows = ElementGeometry.rows

        def counting_rows(geom, lo, hi):
            cut.append(rows(geom, lo, hi))
            return cut[-1]

        # Two ranks a shard, so a shard is neither a rank nor the plan.
        with mock.patch.object(ElementGeometry, "rows", counting_rows), \
                mock.patch.object(timestep, "BLOCK_BYTES", budget):
            model = build()
        assert model.groups == [(0, 2), (2, 4)]
        assert cut == model.geoms and model.engine.contexts == tuple(model.geoms)
        plan, off = model.plan_geom, model.hx.elem_offsets
        assert np.array_equal(plan.elem_ids, np.concatenate(model.hx.rank_elems))
        assert "tensors" not in vars(plan)
        names = ("e_cov_planes", "metinv_planes", "spheremp", "fcor")
        for (r0, r1), g in zip(model.groups, model.geoms):
            assert np.array_equal(g.elem_ids, plan.elem_ids[off[r0]:off[r1]])
            assert "tensors" in vars(g)  # warmed before the engine
            own = ElementGeometry(model.mesh, g.elem_ids)
            for name in (*names, "metdet", "met", "lat", "lon"):
                a = getattr(g, name)
                assert np.shares_memory(a, getattr(plan, name)), name
                assert a.tobytes() == getattr(own, name).tobytes(), name
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 0.0

    def test_rank_groups_follow_the_state_bytes(self, build):
        """Consecutive ranks merge while their largest per-element state
        array fits the block budget read at construction; a rank over it
        stays alone.  The groups are the shards: one state, one geometry
        and one engine context each, over the group's rows of the plan."""
        per_rank = rank_bytes(build)
        alone = [(0, 1), (1, 2), (2, 3), (3, 4)]
        for budget, want in ((per_rank - 1, alone), (per_rank, alone),
                             (2 * per_rank, [(0, 2), (2, 4)]),
                             (3 * per_rank, [(0, 3), (3, 4)]),
                             (4 * per_rank, [(0, 4)])):
            with mock.patch.object(timestep, "BLOCK_BYTES", budget):
                model = build()
            assert model.groups == want, budget
            assert len(model.states) == len(model.geoms) == len(model.engine.contexts)
            off = model.hx.elem_offsets
            for (r0, r1), s, g in zip(model.groups, model.states, model.geoms):
                assert np.array_equal(g.elem_ids,
                                      model.plan_geom.elem_ids[off[r0]:off[r1]])
                assert all(len(a) == off[r1] - off[r0] for a in vars(s).values())

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_task_per_shard_per_stage(self, build, workers):
        """A step dispatches one task per shard per batch, in process and
        on a pool alike."""
        with mock.patch.object(timestep, "BLOCK_BYTES", 2 * rank_bytes(build)), \
                build(workers=workers) as model:
            engine = model.engine
            calls, tasks = engine.calls, engine.tasks_parallel + engine.tasks_serial
            model.step()
            assert len(model.groups) == 2
            assert (engine.tasks_parallel + engine.tasks_serial - tasks
                    == len(model.groups) * (engine.calls - calls))

    def test_a_pool_gets_a_shard_per_worker_and_the_in_process_bits(self, build):
        """Ranks that would fit one block still split so that every worker
        has a shard; the trajectory is the in-process model's bytes."""
        with build() as alone, build(workers=2) as pooled:
            assert alone.groups == [(0, 4)]
            assert len(pooled.groups) >= 2
            alone.run_steps(2)
            pooled.run_steps(2)
            a, b = alone.snapshot(), pooled.snapshot()
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key
        assert pooled.engine.leaked_shm() == []

    def test_rank_states_are_views_of_the_shards(self, build):
        """A write through a rank's state lands in its shard's array, at
        the rank's rows."""
        with mock.patch.object(timestep, "BLOCK_BYTES", 2 * rank_bytes(build)):
            model = build()
        off, field = model.hx.elem_offsets, model._fields[0]
        ranks = model.rank_states()
        assert len(ranks) == model.nranks
        for r, s in enumerate(ranks):
            g = next(i for i, (r0, r1) in enumerate(model.groups) if r0 <= r < r1)
            shard = getattr(model.states[g], field)
            lo = off[r] - off[model.groups[g][0]]
            getattr(s, field)[0] = -float(r + 1)
            assert np.all(shard[lo] == -float(r + 1)), r
            assert np.shares_memory(getattr(s, field), shard)

    def test_snapshot_keys_and_shapes_are_per_rank(self, any_build):
        """Whatever the shards, a snapshot holds ``<field>_<rank>`` arrays
        of each rank's own elements, as it did before ranks were grouped;
        a serial model's whole mesh is rank 0."""
        model = any_build()
        ranks = rank_elements(model)
        assert len(model.states) < len(ranks) or len(ranks) == 1
        snap = model.snapshot()
        want = {"meta"} | {f"{f}_{r}" for f in model._fields
                           for r in range(len(ranks))}
        assert set(snap) == want
        for f in model._fields:
            whole = getattr(whole_state(model), f)
            for r, elems in enumerate(ranks):
                assert snap[f"{f}_{r}"].shape == whole[elems].shape
                assert snap[f"{f}_{r}"].tobytes() == whole[elems].tobytes()

    def test_snapshot_restore_continues_bitwise(self, any_build):
        straight, resumed = any_build(), any_build()
        straight.run_steps(2)
        snap = straight.snapshot()
        straight.run_steps(2)  # prim: crosses the rsplit=3 remap
        resumed.restore_snapshot(snap)
        assert resumed.step_count == 2 and resumed.t == snap["meta"][0]
        resumed.run_steps(2)
        a, b = straight.snapshot(), resumed.snapshot()
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    @pytest.mark.parametrize("damage, named", [
        (lambda s, k: s.pop("meta"), "'meta'"),
        (lambda s, k: s.update(meta=s["meta"][:1]), "'meta'"),
        # A checkpoint of the older format: (t, step_count, tag epoch).
        (lambda s, k: s.update(meta=np.append(s["meta"], 0.0)), "'meta'"),
        (lambda s, k: s.pop(k), None),
        (lambda s, k: s.update(extra_9=s[k]), "'extra_9'"),
        (lambda s, k: s.update({k: s[k][:-1]}), None),
        (lambda s, k: s.update({k: s[k].astype(np.float32)}), None),
        # The shape of meta was checked, its values were not: a nan time or
        # a step count of 1.5 went into the exchange tags and remap cadence.
        *[(lambda s, k, i=i, x=x: s["meta"].__setitem__(i, x), f"'meta'.* {x} ")
          for i, x in [(0, np.nan), (0, np.inf), (0, -1.0),
                       (1, np.nan), (1, np.inf), (1, -1.0), (1, 1.5)]],
    ], ids=["no-meta", "short-meta", "epoch-meta", "missing-key", "extra-key",
            "wrong-shape", "wrong-dtype", "t-nan", "t-inf", "t-negative",
            "steps-nan", "steps-inf", "steps-negative", "steps-fractional"])
    def test_bad_snapshot_rejected_and_state_untouched(self, any_build, damage,
                                                       named):
        model = any_build()
        model.step()
        before = model.snapshot()  # arrays and (t, step_count)
        snap = model.snapshot()
        key = sorted(k for k in snap if k != "meta")[-1]
        damage(snap, key)
        with pytest.raises(KernelError, match=named or repr(key)):
            model.restore_snapshot(snap)
        after = model.snapshot()
        assert before.keys() == after.keys()
        for k in before:
            assert np.array_equal(before[k], after[k]), k
        model.step()  # still a working model

    @pytest.mark.parametrize("thickness, value, rule", [
        (True, np.nan, "non-finite"), (True, np.inf, "non-finite"),
        (True, 0.0, "non-positive"), (True, -1.0, "non-positive"),
        (False, np.nan, "non-finite"), (False, -np.inf, "non-finite"),
    ])
    def test_bad_values_rejected_and_state_untouched(self, any_build,
                                                     thickness, value, rule):
        """A non-finite value in any field, or a layer thickness (``dp3d``,
        ``h``) <= 0, is refused by key before anything is written."""
        model = any_build()
        model.step()
        before = model.snapshot()
        snap = model.snapshot()
        last = len(model.rank_states()) - 1
        field = next(f for f in model._fields
                     if (f in POSITIVE_FIELDS) == thickness)
        key = f"{field}_{last}"
        snap[key].reshape(-1)[3] = value
        with pytest.raises(KernelError, match=re.escape(
                f"snapshot key {key!r} has 1 {rule} value(s)")):
            model.restore_snapshot(snap)
        after = model.snapshot()
        assert before.keys() == after.keys()
        for k in before:
            assert before[k].tobytes() == after[k].tobytes(), k

    def test_seeded_shallow_water_restore_accepted(self, mesh4):
        """The step benchmark's ``sw_dist`` route: a Williamson-2 state at
        a seeded wind amplitude goes in through ``restore_snapshot``."""
        u0 = 2.0 * np.pi * 6.371e6 / (12 * 86400)
        seeded = williamson2_initial(
            mesh4, u0=u0 * np.random.default_rng(0).uniform(0.9, 1.1))
        with DistributedShallowWater(mesh4, nranks=4) as model:
            snap = model.snapshot()
            for r, (h, v) in enumerate(zip(model.hx.scatter(seeded.h),
                                           model.hx.scatter(seeded.v))):
                snap[f"h_{r}"], snap[f"v_{r}"] = h, v
            model.restore_snapshot(snap)
            assert model.gather_state().h.tobytes() == seeded.h.tobytes()
            model.step()
            assert np.isfinite(model.gather_state().h).all()

    def test_snapshot_from_other_rank_count_rejected(self, any_build):
        model = any_build()
        snap = model.snapshot()
        n = len(model.rank_states())
        for f in model._fields:
            snap[f"{f}_{n}"] = snap[f"{f}_{n - 1}"]
        with pytest.raises(KernelError, match="rank count"):
            model.restore_snapshot(snap)

    def test_checkpointer_round_trips_every_model(self, any_build, tmp_path):
        """One file format for all four: a checkpoint written after two
        steps restores into a fresh model with its time, step count and
        bytes."""
        from repro.resilience import Checkpointer

        model, fresh = any_build(), any_build()
        model.run_steps(2)
        ck = Checkpointer(tmp_path)
        ck.save(model)
        assert ck.restore(fresh) == 2 and fresh.t == model.t
        a, b = model.snapshot(), fresh.snapshot()
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key

    def test_benchmark_seam_one_halo_table_one_pool_per_model(
            self, build, monkeypatch):
        """The step benchmark times set-up by wrapping these two names
        in the module; the models must look them up there, once each."""
        calls = {"HaloExchanger": 0, "ParallelEngine": 0}

        def counting(name):
            real = getattr(dist_mod, name)

            def wrapper(*a, **kw):
                calls[name] += 1
                return real(*a, **kw)
            return wrapper

        for name in calls:
            monkeypatch.setattr(dist_mod, name, counting(name))
        # The adapter's keyword set for a pooled workload.
        with build(mode="overlap", workers=2, pipeline=True, tracer=None,
                   exec_path="fused") as model:
            assert calls == {"HaloExchanger": 1, "ParallelEngine": 1}
            for attr in ("hx", "mpi", "engine", "geoms", "dt", "step_count"):
                assert hasattr(model, attr)


class TestPrimConstructorValidation:
    def test_cfg_mesh_resolution_mismatch(self, setup):
        from repro.config import ModelConfig

        _, mesh, state = setup
        with pytest.raises(KernelError, match="mesh resolution"):
            DistributedPrimitiveEquations(
                ModelConfig(ne=8, nlev=4, qsize=1), mesh, state, nranks=2,
                dt=600.0)

    @pytest.mark.parametrize("field, value", [("nlev", 8), ("qsize", 3)])
    def test_state_disagrees_with_config(self, setup, field, value):
        from repro.config import ModelConfig

        _, mesh, state = setup
        cfg = ModelConfig(**{"ne": 4, "nlev": 4, "qsize": 1, field: value})
        with pytest.raises(KernelError, match="qdp has shape"):
            DistributedPrimitiveEquations(cfg, mesh, state, nranks=2, dt=600.0)

    def test_state_disagrees_with_mesh(self, setup):
        from repro.homme.element import ElementState

        cfg, mesh, _ = setup
        small = ElementState.zeros(mesh.nelem - 1, cfg.nlev, mesh.np, cfg.qsize)
        with pytest.raises(KernelError, match="qdp has shape"):
            DistributedPrimitiveEquations(cfg, mesh, small, nranks=2, dt=600.0)


class TestConstructorChecksFirst:
    """A bad argument fails at construction, before the partition, the
    halo tables or the engine cost anything (once, both got as far as
    stepping before an internal name surfaced)."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the layout was built before the check")

        for name in ("SFCPartition", "HaloExchanger", "ParallelEngine"):
            monkeypatch.setattr(dist_mod, name, refuse)

    def test_unknown_combine_rejected(self, setup, nothing_built):
        cfg, mesh, state = setup
        with pytest.raises(SimMPIError, match="unknown allreduce algorithm 'tree'"):
            DistributedPrimitiveEquations(cfg, mesh, state, nranks=4, dt=600.0,
                                          combine="tree")

    def test_simmpi_rejects_unknown_allreduce_algorithm(self):
        with pytest.raises(SimMPIError, match="unknown allreduce algorithm"):
            SimMPI(4, allreduce_algorithm="tree")

    @pytest.mark.parametrize("workers", [2.5, 1.9, True, "3", None])
    def test_non_integer_workers_refused(self, mesh4, nothing_built, workers):
        with pytest.raises(KernelError, match=re.escape(
                f"workers must be an integer, got {workers!r}")):
            DistributedShallowWater(mesh4, 4, workers=workers)

    @pytest.mark.parametrize("kwargs", [
        {"faults": None}, {"workers": 3}, {"label": "x"}, {"bogus": 1},
        {"heartbeat_timeout": 5.0, "contexts": ()}])
    @pytest.mark.parametrize("kind", ["sw", "prim"])
    def test_engine_kwargs_take_only_supervision_knobs(
            self, mesh4, setup, nothing_built, monkeypatch, kind, kwargs):
        """The model's own engine arguments, or an unknown one, raise
        ``KernelError`` naming the key, before anything is built — not a
        ``TypeError`` from deep inside the engine."""
        def refuse(*args, **kw):
            raise AssertionError("SimMPI was built before the check")

        monkeypatch.setattr(dist_mod, "SimMPI", refuse)
        bad = next(k for k in kwargs if k not in dist_mod.ENGINE_KNOBS)
        with pytest.raises(KernelError, match=f"not {bad!r}"):
            if kind == "sw":
                DistributedShallowWater(mesh4, 4, engine_kwargs=kwargs)
            else:
                cfg, mesh, state = setup
                DistributedPrimitiveEquations(cfg, mesh, state, nranks=4,
                                              dt=600.0, engine_kwargs=kwargs)

    def test_supervision_knobs_reach_the_engine(self, mesh4):
        knobs = {"heartbeat_timeout": 7.0, "result_timeout": 9.0,
                 "max_respawns": 1, "profile_hz": 0.0}
        assert set(knobs) == dist_mod.ENGINE_KNOBS
        with DistributedShallowWater(mesh4, 4, engine_kwargs=knobs) as model:
            e = model.engine
            assert (e.heartbeat_timeout, e.result_timeout, e.max_respawns,
                    e.profile_hz) == (7.0, 9.0, 1, 0.0)

    def test_numpy_integer_workers_accepted(self, mesh4):
        with DistributedShallowWater(mesh4, 4, workers=np.int64(-1)) as model:
            assert model.workers == 0 and type(model.workers) is int
