"""Integration tests: shallow-water verification, prim_run stability,
and the distributed boundary exchange."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro import constants as C
from repro.config import ModelConfig
from repro.errors import KernelError
from repro.homme import distributed, timestep
from repro.homme.bndry import HaloExchanger
from repro.homme.distributed import DistributedPrimitiveEquations
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.shallow_water import ShallowWaterModel, williamson2_initial
from repro.homme.timestep import PrimitiveEquationModel, RSPLIT
from repro.mesh import CubedSphereMesh, SFCPartition
from repro.network import SimMPI

from .dss_oracle import dss_vector
from .test_halo_plan import plan_dss, row_bytes


class TestShallowWater:
    @pytest.fixture(scope="class")
    def run12h(self):
        mesh = CubedSphereMesh(ne=6)
        model = ShallowWaterModel(mesh)
        ref = williamson2_initial(mesh)
        m0 = model.total_mass()
        model.run_hours(12)
        return model, ref, m0

    def test_williamson2_height_error_small(self, run12h):
        model, ref, _ = run12h
        # Steady state: L2 height error stays at discretization level.
        assert model.height_l2_error(ref) < 1e-3

    def test_mass_exactly_conserved(self, run12h):
        model, _, m0 = run12h
        assert abs(model.total_mass() - m0) / m0 < 1e-13

    def test_state_bounded(self, run12h):
        model, ref, _ = run12h
        assert np.isfinite(model.state.h).all()
        assert abs(model.state.h.max() - ref.h.max()) / ref.h.max() < 0.01

    def test_cfl_derived_dt(self):
        mesh = CubedSphereMesh(ne=4)
        model = ShallowWaterModel(mesh)
        c = np.sqrt(C.GRAVITY * model.state.h.max())
        dx = 2 * np.pi * mesh.radius / (4 * 4 * 3)
        assert model.dt <= 0.3 * dx / c


class TestRunLengthValidation:
    """Step counts and durations are checked before a step is taken:
    each of these once did nothing, one step, or died deep in ``range``
    or ``int`` with a message that named neither."""

    @pytest.fixture
    def sw(self):
        return ShallowWaterModel(CubedSphereMesh(2))

    @staticmethod
    def assert_untouched(model, h0):
        assert model.step_count == 0 and model.t == 0.0
        assert model.state.h.tobytes() == h0

    @pytest.mark.parametrize("n", [-3, True, 2.5, "2", None])
    def test_bad_step_count_rejected(self, sw, n):
        h0 = sw.state.h.tobytes()
        with pytest.raises(KernelError, match="step count must be a whole number"):
            sw.run_steps(n)
        self.assert_untouched(sw, h0)

    def test_whole_step_counts_accepted(self, sw):
        sw.run_steps(0)
        assert sw.step_count == 0
        sw.run_steps(np.int64(2))
        assert sw.step_count == 2

    @pytest.mark.parametrize("hours", [-5.0, float("nan"), float("inf")])
    def test_bad_hours_rejected(self, sw, hours):
        h0 = sw.state.h.tobytes()
        with pytest.raises(KernelError, match="hours must be finite and >= 0"):
            sw.run_hours(hours)
        self.assert_untouched(sw, h0)

    @pytest.mark.parametrize("days", [-1.0, float("nan"), float("inf")])
    def test_bad_days_rejected(self, days):
        model = PrimitiveEquationModel(ModelConfig(ne=2, nlev=2, qsize=1))
        with pytest.raises(KernelError, match="days must be finite and >= 0"):
            model.run_days(days)
        assert model.step_count == 0 and model.t == 0.0


class TestPrimitiveEquationModel:
    def test_rest_state_stays_at_rest(self):
        cfg = ModelConfig(ne=4, nlev=8, qsize=1)
        model = PrimitiveEquationModel(cfg, dt=600.0)
        model.run_steps(5)
        d = model.diagnostics()
        assert d["max_wind"] < 1e-10
        assert d["finite"] == 1.0

    def test_mass_conservation_with_noise(self):
        cfg = ModelConfig(ne=4, nlev=8, qsize=1)
        model = PrimitiveEquationModel(cfg, dt=600.0)
        rng = np.random.default_rng(0)
        model.state.T = model.geom.dss(model.state.T + rng.standard_normal(model.state.T.shape))
        m0 = model.diagnostics()["mass"]
        model.run_steps(RSPLIT * 4)  # through several remap cycles
        d = model.diagnostics()
        assert d["finite"] == 1.0
        assert abs(d["mass"] - m0) / m0 < 1e-9

    def test_winds_develop_from_temperature_noise(self):
        cfg = ModelConfig(ne=4, nlev=8, qsize=1)
        model = PrimitiveEquationModel(cfg, dt=600.0)
        rng = np.random.default_rng(1)
        model.state.T = model.geom.dss(model.state.T + rng.standard_normal(model.state.T.shape))
        model.run_steps(20)
        d = model.diagnostics()
        assert 0 < d["max_wind"] < 50.0
        assert 9.5e4 < d["ps_min"] and d["ps_max"] < 1.1e5

    def test_remap_happens_every_rsplit(self):
        cfg = ModelConfig(ne=4, nlev=8, qsize=1)
        model = PrimitiveEquationModel(cfg, dt=600.0)
        rng = np.random.default_rng(2)
        model.state.T = model.geom.dss(model.state.T + rng.standard_normal(model.state.T.shape))
        model.run_steps(RSPLIT)
        # Right after a remap, dp3d is uniform per column.
        spread = model.state.dp3d.max(axis=1) - model.state.dp3d.min(axis=1)
        assert np.abs(spread).max() < 1e-9

    def test_forcing_hook_called(self):
        calls = []

        def forcing(state, geom, t, dt):
            calls.append(t)
            state.T += 0.0

        cfg = ModelConfig(ne=4, nlev=8, qsize=0)
        model = PrimitiveEquationModel(cfg, dt=600.0, forcing=forcing)
        model.run_steps(3)
        assert len(calls) == 3

    def test_mesh_mismatch_rejected(self):
        mesh = CubedSphereMesh(ne=6)
        with pytest.raises(KernelError):
            PrimitiveEquationModel(ModelConfig(ne=4, nlev=8), mesh=mesh)

    def test_initial_state_must_match_configuration(self):
        """A state of other levels and tracers than the configuration says
        is refused, as the distributed constructor refuses it (it used to
        construct and step silently)."""
        mesh = CubedSphereMesh(ne=4)
        other = ElementState.isothermal_rest(
            ElementGeometry(mesh), ModelConfig(ne=4, nlev=4, qsize=3))
        with pytest.raises(KernelError, match="initial state qdp has shape"):
            PrimitiveEquationModel(ModelConfig(ne=4, nlev=8, qsize=2),
                                   mesh=mesh, init=other)

    def test_shallow_water_state_must_match_mesh(self):
        with pytest.raises(KernelError, match="initial state"):
            ShallowWaterModel(CubedSphereMesh(ne=4),
                              state=williamson2_initial(CubedSphereMesh(ne=3)))

    def test_run_days(self):
        cfg = ModelConfig(ne=4, nlev=8, qsize=0)
        model = PrimitiveEquationModel(cfg, dt=1800.0)
        model.run_days(0.125)
        assert model.t == pytest.approx(0.125 * 86400)

    def test_element_blocks_lower_memory(self):
        """At ne8 x 16 levels x 4 tracers the step runs in six 64-element
        blocks: the whole-mesh geometry builds no operator tensors, and a
        step peaks no higher than the same step as one block (the blocks
        are the shards: a task's outputs stay per block until the step
        ends and puts them together, one field at a time)."""
        cfg, mesh = ModelConfig(ne=8, nlev=16, qsize=4), CubedSphereMesh(8)

        def stepped(budget):
            with mock.patch.object(timestep, "BLOCK_BYTES", budget):
                model = PrimitiveEquationModel(cfg, mesh, dt=600.0)
            model.step()  # operands built before tracing
            tracemalloc.start()
            try:
                model.step()
                return model, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocked, blocked_peak = stepped(timestep.BLOCK_BYTES)
        assert [hi - lo for lo, hi, _ in blocked.blocks] == [64] * 6
        assert "tensors" not in vars(blocked.geom)
        whole, whole_peak = stepped(1 << 40)
        assert len(whole.blocks) == 1
        assert blocked_peak <= whole_peak

    def test_block_states_are_views_of_the_state(self):
        """Between steps, every block's state is a row range of the
        whole-mesh state, as views; one block is the state itself."""
        cfg, mesh = ModelConfig(ne=4, nlev=4, qsize=2), CubedSphereMesh(4)
        model = PrimitiveEquationModel(cfg, mesh, dt=600.0)
        assert model.states == [model.state]
        per_elem = max(a.nbytes // len(a) for a in vars(model.state).values())
        with mock.patch.object(timestep, "BLOCK_BYTES", 20 * per_elem):
            model._split_blocks()
        assert len(model.blocks) == 5
        for _ in range(2):
            for (lo, hi, _), s in zip(model.blocks, model.states, strict=True):
                for f in model._fields:
                    whole, rows = getattr(model.state, f), getattr(s, f)
                    assert rows.base is whole
                    assert rows.ctypes.data == whole[lo:hi].ctypes.data
                    assert rows.shape == whole[lo:hi].shape
                    assert whole.flags.c_contiguous
            model.step()


class TestOneShardDSS:
    """The one-shard layout's DSS — the halo exchanger's data path on a
    plan of the whole mesh at one rank — against the whole-field oracles
    ``ElementGeometry.dss`` / ``dss_oracle.dss_vector``, byte for byte (so
    ``-0.0`` and ``+0.0`` differ) and C-contiguous, at any element blocks."""

    NE, NLEV, QSIZE = 3, 4, 2

    @pytest.fixture(scope="class")
    def models(self):
        mesh = CubedSphereMesh(self.NE)
        cfg = ModelConfig(ne=self.NE, nlev=self.NLEV, qsize=self.QSIZE)
        return (PrimitiveEquationModel(cfg, mesh, dt=600.0),
                ShallowWaterModel(mesh))

    @staticmethod
    def fields(rng, *shape):
        f = rng.standard_normal(shape)
        f.reshape(-1)[::7] = -0.0  # signed zeros must survive as the oracle's
        return f

    @staticmethod
    def blocked(model, bounds):
        E = model.mesh.nelem
        bounds = {"one": [0, E], "uneven": [0, 7, 30, E],
                  "single": list(range(E + 1))}[bounds]
        model.blocks = [(lo, hi, model.geom.rows(lo, hi))
                        for lo, hi in zip(bounds, bounds[1:])]
        return model

    def check(self, model, bundle, oracle):
        shards = [tuple(f[lo:hi] for f in bundle) for lo, hi, _ in model.blocks]
        outs = model._fanout_dss(None, {}, shards, stage=0, slot=0)
        assert len(outs) == len(model.blocks)
        for k, want in enumerate(oracle):
            parts = [o[k] for o in outs]
            assert all(p.flags.c_contiguous for p in parts)
            assert np.concatenate(parts).tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("bounds", ["one", "uneven", "single"])
    def test_shallow_water_fields(self, models, bounds):
        model = self.blocked(models[1], bounds)
        rng, g, E = np.random.default_rng(1), model.geom, model.mesh.nelem
        h, v = self.fields(rng, E, 4, 4), self.fields(rng, E, 4, 4, 2)
        self.check(model, (h,), [g.dss(h)])
        self.check(model, (v,), [dss_vector(g, v)])
        self.check(model, (v, h), [dss_vector(g, v), g.dss(h)])

    @pytest.mark.parametrize("bounds", ["one", "uneven", "single"])
    def test_levelled_fields(self, models, bounds):
        model = self.blocked(models[0], bounds)
        rng, g, E = np.random.default_rng(2), model.geom, model.mesh.nelem
        L, Q = self.NLEV, self.QSIZE
        T, dp = self.fields(rng, E, L, 4, 4), self.fields(rng, E, L, 4, 4)
        v = self.fields(rng, E, L, 4, 4, 2)
        stack = self.fields(rng, E, Q * L, 4, 4)  # a folded tracer stack
        self.check(model, (T,), [g.dss(T)])
        self.check(model, (v,), [dss_vector(g, v)])
        self.check(model, (stack,), [g.dss(stack)])
        self.check(model, (T, v, dp, stack),
                   [g.dss(T), dss_vector(g, v), g.dss(dp), g.dss(stack)])
        qdp = stack.reshape(E, Q, L, 4, 4)
        want = g.dss(stack).reshape(qdp.shape)
        got = timestep._dss_stack(
            model, [qdp[lo:hi] for lo, hi, _ in model.blocks], slot=0)
        assert np.concatenate(got).tobytes() == want.tobytes()


class TestInitialStateValues:
    """Initial states are checked for their values before a time step is
    derived or a partition or pool is built, on both layouts."""

    @pytest.fixture(scope="class")
    def prim(self):
        cfg, mesh = ModelConfig(ne=3, nlev=4, qsize=2), CubedSphereMesh(3)
        return cfg, mesh, ElementState.isothermal_rest(ElementGeometry(mesh), cfg)

    @staticmethod
    def build(layout, cfg, mesh, state):
        if layout == "serial":
            return PrimitiveEquationModel(cfg, mesh, init=state, dt=600.0)
        return DistributedPrimitiveEquations(cfg, mesh, state, nranks=2,
                                             dt=600.0)

    def refused(self, layout, cfg, mesh, state, match):
        """The constructor raises ``match`` before any partition exists."""
        with pytest.raises(KernelError, match=match), mock.patch.object(
                distributed, "SFCPartition",
                side_effect=AssertionError("partitioned")):
            self.build(layout, cfg, mesh, state)

    @pytest.mark.parametrize("layout", ["serial", "distributed"])
    @pytest.mark.parametrize("field, value, match", [
        ("T", np.nan, "initial state T is not finite"),
        ("v", np.inf, "initial state v is not finite"),
        ("qdp", -np.inf, "initial state qdp is not finite"),
        ("dp3d", np.nan, "initial state dp3d is not finite"),
        ("dp3d", -5.0, "initial state dp3d must be > 0"),
        ("dp3d", 0.0, "initial state dp3d must be > 0"),
    ])
    def test_bad_value_named(self, prim, layout, field, value, match):
        cfg, mesh, state = prim
        bad = state.copy()
        getattr(bad, field).reshape(-1)[5] = value
        self.refused(layout, cfg, mesh, bad, match)

    @pytest.mark.parametrize("layout", ["serial", "distributed"])
    def test_non_real_dtype_refused(self, prim, layout):
        cfg, mesh, state = prim
        bad = state.copy()
        bad.T = bad.T.astype(complex)
        self.refused(layout, cfg, mesh, bad, "initial state T has dtype complex")

    @pytest.mark.parametrize("field, value, match", [
        ("h", np.inf, "initial state h is not finite"),
        ("v", np.nan, "initial state v is not finite"),
        ("h", -1.0, "initial state h must be > 0"),
    ])
    def test_shallow_water_bad_value_named(self, field, value, match):
        mesh = CubedSphereMesh(3)
        bad = williamson2_initial(mesh)
        getattr(bad, field).reshape(-1)[3] = value
        with pytest.raises(KernelError, match=match):  # not the derived dt
            ShallowWaterModel(mesh, state=bad)

    @pytest.mark.parametrize("layout", ["serial", "distributed"])
    def test_float32_state_rolls_back_to_step_zero(self, prim, layout):
        """A float32 start is kept as float64, so a step-0 snapshot
        restores after a step and the replay is the first trajectory."""
        cfg, mesh, state = prim
        single = state.copy()
        single.T = (single.T + ElementGeometry(mesh).lat[:, None]).astype(np.float32)
        single.v = np.full_like(single.v, 1e-6, dtype=np.float32)
        model = self.build(layout, cfg, mesh, single)
        snap = model.snapshot()
        assert all(a.dtype == np.float64 for a in snap.values())
        model.run_steps(2)
        first = [a.copy() for k, a in model.snapshot().items() if k != "meta"]
        model.restore_snapshot(snap)
        model.run_steps(2)
        again = [a for k, a in model.snapshot().items() if k != "meta"]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


class TestHaloExchanger:
    @pytest.fixture(scope="class")
    def setup(self):
        mesh = CubedSphereMesh(ne=4)
        part = SFCPartition(4, 8)
        return mesh, part, HaloExchanger(mesh, part)

    @staticmethod
    def dss(hx, f):
        """DSS one whole-mesh field through the layouts' shard tasks; its
        per-rank outputs."""
        return [o for o, in plan_dss(hx, [(x,) for x in hx.scatter(f)])]

    @staticmethod
    def exchange(hx, f, mpi, **kwargs):
        """Charge the exchange of one whole-mesh field; its memcpy seconds."""
        return hx.exchange(mpi, row_bytes([f]), **kwargs)

    def test_matches_serial_dss_scalar(self, setup):
        mesh, part, hx = setup
        f = np.random.default_rng(0).standard_normal((mesh.nelem, 4, 4))
        assert np.allclose(hx.gather(self.dss(hx, f)), mesh.dss(f), atol=1e-13)

    def test_matches_serial_dss_multifield(self, setup):
        mesh, part, hx = setup
        f = np.random.default_rng(1).standard_normal((mesh.nelem, 4, 4, 3))
        assert np.allclose(hx.gather(self.dss(hx, f)), mesh.dss(f), atol=1e-13)

    def test_classic_equals_overlap_numerically(self, setup):
        """The mode moves clocks, not bits: a distributed step in either
        leaves the same state."""
        mesh, part, hx = setup
        models = [distributed.DistributedShallowWater(mesh, 8, mode=mode)
                  for mode in ("classic", "overlap")]
        for m in models:
            m.step()
        a, b = (m.gather_state() for m in models)
        assert a.h.tobytes() == b.h.tobytes() and a.v.tobytes() == b.v.tobytes()
        assert models[0].max_rank_time() != models[1].max_rank_time()

    def test_overlap_hides_communication(self, setup):
        mesh, part, hx = setup
        f = np.random.default_rng(3).standard_normal((mesh.nelem, 4, 4, 8))
        # Generous inner work so messages are fully hidden.
        inner = [5e-3] * 8
        bdry = [1e-3] * 8
        mpi_c, mpi_o = SimMPI(8), SimMPI(8)
        self.exchange(hx, f, mpi_c, mode="classic",
                      boundary_compute=bdry, inner_compute=inner)
        self.exchange(hx, f, mpi_o, mode="overlap",
                      boundary_compute=bdry, inner_compute=inner)
        assert mpi_o.max_time() < mpi_c.max_time()

    def test_classic_has_double_memcpy(self, setup):
        mesh, part, hx = setup
        f = np.random.default_rng(4).standard_normal((mesh.nelem, 4, 4))
        classic = self.exchange(hx, f, SimMPI(8), mode="classic")
        overlap = self.exchange(hx, f, SimMPI(8), mode="overlap")
        assert classic == pytest.approx(2 * overlap)

    def test_wrong_communicator_size(self, setup):
        mesh, part, hx = setup
        f = np.zeros((mesh.nelem, 4, 4))
        with pytest.raises(KernelError):
            self.exchange(hx, f, SimMPI(4))

    def test_unknown_mode(self, setup):
        mesh, part, hx = setup
        f = np.zeros((mesh.nelem, 4, 4))
        with pytest.raises(KernelError):
            self.exchange(hx, f, SimMPI(8), mode="magic")

    def test_scatter_gather_roundtrip(self, setup):
        mesh, part, hx = setup
        f = np.random.default_rng(5).standard_normal((mesh.nelem, 4, 4))
        for dtype in (np.float64, np.float32):
            back = hx.gather(hx.scatter(f.astype(dtype)))
            assert back.dtype == dtype
            assert np.array_equal(back, f.astype(dtype))
