"""Integration tests: shallow-water verification, prim_run stability,
and the distributed boundary exchange."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro import constants as C
from repro.config import ModelConfig
from repro.errors import KernelError
from repro.homme import timestep
from repro.homme.bndry import HaloExchanger
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.shallow_water import ShallowWaterModel, williamson2_initial
from repro.homme.timestep import PrimitiveEquationModel, RSPLIT
from repro.mesh import CubedSphereMesh, SFCPartition
from repro.network import SimMPI


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
        step peaks no higher than the same step as one block (a block's
        outputs land in whole-mesh arrays; no list of every block's)."""
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


class TestHaloExchanger:
    @pytest.fixture(scope="class")
    def setup(self):
        mesh = CubedSphereMesh(ne=4)
        part = SFCPartition(4, 8)
        return mesh, part, HaloExchanger(mesh, part)

    @staticmethod
    def dss(hx, f, mpi, **kwargs):
        """Exchange one whole-mesh field; its per-rank outputs and report."""
        outs, rep = hx.exchange([(x,) for x in hx.scatter(f)], mpi, **kwargs)
        return [o for o, in outs], rep

    @pytest.fixture
    def make_mpi(self):
        """Communicator factory whose teardown verifies the mailbox
        drained — a leaked message (mismatched tag) fails the test."""
        comms = []

        def _make(nranks=8):
            mpi = SimMPI(nranks)
            comms.append(mpi)
            return mpi

        yield _make
        for mpi in comms:
            mpi.finalize()

    def test_matches_serial_dss_scalar(self, setup, make_mpi):
        mesh, part, hx = setup
        f = np.random.default_rng(0).standard_normal((mesh.nelem, 4, 4))
        outs, _ = self.dss(hx, f, make_mpi(), mode="classic")
        assert np.allclose(hx.gather(outs), mesh.dss(f), atol=1e-13)

    def test_matches_serial_dss_multifield(self, setup, make_mpi):
        mesh, part, hx = setup
        f = np.random.default_rng(1).standard_normal((mesh.nelem, 4, 4, 3))
        outs, _ = self.dss(hx, f, make_mpi(), mode="overlap")
        assert np.allclose(hx.gather(outs), mesh.dss(f), atol=1e-13)

    def test_classic_equals_overlap_numerically(self, setup, make_mpi):
        mesh, part, hx = setup
        f = np.random.default_rng(2).standard_normal((mesh.nelem, 4, 4))
        a, _ = self.dss(hx, f, make_mpi(), mode="classic")
        b, _ = self.dss(hx, f, make_mpi(), mode="overlap")
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_overlap_hides_communication(self, setup, make_mpi):
        mesh, part, hx = setup
        f = np.random.default_rng(3).standard_normal((mesh.nelem, 4, 4, 8))
        # Generous inner work so messages are fully hidden.
        inner = [5e-3] * 8
        bdry = [1e-3] * 8
        _, rep_c = self.dss(
            hx, f, make_mpi(), mode="classic",
            boundary_compute=bdry, inner_compute=inner,
        )
        _, rep_o = self.dss(
            hx, f, make_mpi(), mode="overlap",
            boundary_compute=bdry, inner_compute=inner,
        )
        assert rep_o.max_time < rep_c.max_time

    def test_classic_has_double_memcpy(self, setup, make_mpi):
        mesh, part, hx = setup
        f = np.random.default_rng(4).standard_normal((mesh.nelem, 4, 4))
        _, rep_c = self.dss(hx, f, make_mpi(), mode="classic")
        _, rep_o = self.dss(hx, f, make_mpi(), mode="overlap")
        assert rep_c.memcpy_seconds == pytest.approx(2 * rep_o.memcpy_seconds)

    def test_wrong_communicator_size(self, setup):
        mesh, part, hx = setup
        f = np.zeros((mesh.nelem, 4, 4))
        with pytest.raises(KernelError):
            self.dss(hx, f, SimMPI(4))

    def test_unknown_mode(self, setup):
        mesh, part, hx = setup
        f = np.zeros((mesh.nelem, 4, 4))
        with pytest.raises(KernelError):
            self.dss(hx, f, SimMPI(8), mode="magic")

    def test_scatter_gather_roundtrip(self, setup):
        mesh, part, hx = setup
        f = np.random.default_rng(5).standard_normal((mesh.nelem, 4, 4))
        for dtype in (np.float64, np.float32):
            back = hx.gather(hx.scatter(f.astype(dtype)))
            assert back.dtype == dtype
            assert np.array_equal(back, f.astype(dtype))
