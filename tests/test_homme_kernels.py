"""Tests for the Table-1 kernels: rhs, euler_step, vertical_remap, hypervis.

The step's kernels are the recipe's phases (``timestep``), driven here
on the one-shard layout through :func:`whole_mesh`.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants as C
from repro.config import ModelConfig
from repro.errors import KernelError
from repro.homme.diagnostics import total_tracer_mass
from repro.homme.element import ElementGeometry, ElementState
from repro.homme import timestep
from repro.homme.euler import limit_local
from repro.homme.hypervis import hypervis_stable_subcycles, nu_for_ne
from repro.homme.remap import RemapPlan, ppm_edge_values, remap_ppm, vertical_remap
from repro.homme.rhs import (
    PTOP,
    compute_geopotential,
    compute_pressure,
    compute_rhs,
)
from repro.parallel import dycore
from repro.mesh import CubedSphereMesh

from .remap_oracle import oracle_edge_values, oracle_remap_ppm


@pytest.fixture(scope="module")
def domain():
    cfg = ModelConfig(ne=4, nlev=8, qsize=2)
    mesh = CubedSphereMesh(cfg.ne)
    geom = ElementGeometry(mesh)
    return cfg, mesh, geom


def whole_mesh(cfg, mesh, state, dt=600.0):
    """A one-shard model around ``state``, for driving the step's phases."""
    return timestep.PrimitiveEquationModel(cfg, mesh, init=state, dt=dt)


def rk_stage(cfg, mesh, state, dt):
    """The recipe's first RK stage from ``state``: ``state + dt RHS(state)``."""
    model = whole_mesh(cfg, mesh, state)
    out, = timestep.compute_and_apply_rhs(model, model.states, model.states,
                                          dt, stage=1)
    return out


def one_euler_step(cfg, mesh, state, dt):
    """The recipe's euler phase at one subcycle of ``dt``; returns the new qdp."""
    model = whole_mesh(cfg.with_(tracer_subcycles=1), mesh, state, dt=dt)
    timestep.euler_step_subcycled(model, model.states)
    return model.state.qdp


def make_state(cfg, geom, seed=0, wind=5.0, tnoise=1.0):
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(seed)
    if wind:
        u = wind * np.cos(geom.lat)
        vc = geom.mesh.spherical_to_contravariant(u, np.zeros_like(u))
        state.v[:] = vc[:, None]
    if tnoise:
        state.T += geom.dss(rng.standard_normal(state.T.shape) * tnoise)
    state.qdp[:, 0] = state.dp3d * 1e-3
    state.qdp[:, 1] = state.dp3d * np.exp(-geom.lat**2)[:, None]
    return state


class TestPressure:
    def test_interfaces_monotone(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        p_mid, p_int = compute_pressure(state.dp3d)
        assert np.all(np.diff(p_int, axis=1) > 0)
        assert p_int[:, 0].max() == PTOP

    def test_midlevels_between_interfaces(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        p_mid, p_int = compute_pressure(state.dp3d)
        assert np.all(p_mid > p_int[:, :-1])
        assert np.all(p_mid < p_int[:, 1:])

    def test_surface_pressure(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        _, p_int = compute_pressure(state.dp3d)
        assert np.allclose(p_int[:, -1], state.ps(PTOP))


class TestGeopotential:
    def test_decreases_with_height(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom, tnoise=0.0)
        p_mid, _ = compute_pressure(state.dp3d)
        phi = compute_geopotential(state.T, p_mid, state.dp3d)
        # Level 0 is the top: phi must decrease from level 0 to the surface.
        assert np.all(np.diff(phi, axis=1) < 0)

    def test_isothermal_scale_height(self, domain):
        # For isothermal T0, phi -> R T0 ln(ps/p) as levels refine (the
        # midpoint sum converges to the integral of dp/p).
        cfg, mesh, geom = domain
        fine = cfg.with_(nlev=64)
        state = ElementState.isothermal_rest(geom, fine, T0=280.0)
        p_mid, _ = compute_pressure(state.dp3d)
        phi = compute_geopotential(state.T, p_mid, state.dp3d)
        expected = C.R_DRY * 280.0 * np.log(state.ps(PTOP)[:, None] / p_mid)
        # Exclude the top two layers where the log integrand is steepest.
        assert np.allclose(phi[:, 2:], expected[:, 2:], rtol=0.02)

    def test_surface_geopotential_offset(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom, tnoise=0.0)
        p_mid, _ = compute_pressure(state.dp3d)
        phis = 1000.0 * np.ones((geom.nelem, 4, 4))
        phi0 = compute_geopotential(state.T, p_mid, state.dp3d)
        phi1 = compute_geopotential(state.T, p_mid, state.dp3d, phis)
        assert np.allclose(phi1 - phi0, 1000.0)


class TestComputeAndApplyRhs:
    def test_rest_state_has_zero_tendency(self, domain):
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg)
        dv, dT, ddp = compute_rhs(state, geom)
        # Isothermal rest: grad(phi) and RT/p grad(p) cancel exactly on
        # constant-pressure surfaces; all tendencies vanish.
        assert np.abs(dv).max() < 1e-15
        assert np.abs(dT).max() < 1e-12
        assert np.abs(ddp).max() < 1e-12

    def test_stage_preserves_mass(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        out = rk_stage(cfg, mesh, state, dt=100.0)
        w = geom.spheremp[:, None]
        m0 = np.sum(state.dp3d * w)
        m1 = np.sum(out.dp3d * w)
        assert np.isclose(m1, m0, rtol=1e-12)

    def test_output_fields_continuous(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        out = rk_stage(cfg, mesh, state, dt=100.0)
        assert np.allclose(geom.dss(out.T), out.T, atol=1e-12)
        assert np.allclose(geom.dss_vector(out.v), out.v, atol=1e-18)

    def test_invalid_dt(self, domain):
        # The stage takes its dt from the step; the model checks it once.
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        with pytest.raises(KernelError, match="dt must be finite and > 0"):
            whole_mesh(cfg, mesh, state, dt=-1.0)


class TestEulerStep:
    def test_conserves_tracer_mass(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        m0 = total_tracer_mass(state, geom)
        state.qdp = one_euler_step(cfg, mesh, state, dt=200.0)
        assert np.allclose(total_tracer_mass(state, geom), m0, rtol=1e-10)

    def test_constant_mixing_ratio_preserved(self, domain):
        # q = const is an exact solution of the flux-form equation when
        # qdp = q * dp and dp evolves consistently; with frozen dp over
        # one small step the error is O(dt * div v * q).  A positive
        # field passes the limiter with unit scales.
        cfg, mesh, geom = domain
        state = make_state(cfg, geom, wind=5.0, tnoise=0.0)
        state.qdp[:, 0] = 2e-3 * state.dp3d
        new_qdp = one_euler_step(cfg, mesh, state, dt=1.0)
        q_new = new_qdp[:, 0] / state.dp3d
        assert np.allclose(q_new, 2e-3, rtol=1e-6)

    def test_limiter_removes_negatives(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        qdp = state.qdp[:, 0].copy()
        qdp[:, :, 0, 0] = -1e-4
        limited, _, _ = limit_local(qdp, geom)
        assert limited.min() >= 0.0

    def test_limiter_conserves_elementwise_mass(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        qdp = state.qdp[:, 1].copy()
        qdp[:, :, 1, 1] -= 0.3 * qdp[:, :, 1, 1].mean()
        w = geom.spheremp[:, None]
        m0 = np.sum(qdp * w, axis=(-2, -1))
        limited, _, _ = limit_local(qdp, geom)
        m1 = np.sum(limited * w, axis=(-2, -1))
        # Mass conserved wherever the level had net positive mass.
        pos = m0 > 0
        assert np.allclose(m1[pos], m0[pos], rtol=1e-12)

    def test_subcycled_matches_mass(self, domain):
        cfg, mesh, geom = domain
        model = whole_mesh(cfg, mesh, make_state(cfg, geom))
        m0 = total_tracer_mass(model.state, geom)
        timestep.euler_step_subcycled(model, model.states)
        assert np.allclose(total_tracer_mass(model.state, geom), m0, rtol=1e-10)


class TestRemap:
    def test_identity_remap(self):
        rng = np.random.default_rng(0)
        a = rng.random((10, 16)) + 1.0
        dp = np.full((10, 16), 50.0)
        out = remap_ppm(a, dp, dp)
        assert np.allclose(out, a, atol=1e-12)

    def test_conserves_mass(self):
        rng = np.random.default_rng(1)
        L = 16
        a = rng.random((20, L)) + 0.5
        dp_src = rng.random((20, L)) + 0.5
        # Target: uniform grid with the same column totals.
        dp_tgt = np.repeat(dp_src.sum(axis=1, keepdims=True) / L, L, axis=1)
        out = remap_ppm(a, dp_src, dp_tgt)
        assert np.allclose(
            np.sum(out * dp_tgt, axis=1), np.sum(a * dp_src, axis=1), rtol=1e-12
        )

    def test_monotone_no_new_extrema(self):
        rng = np.random.default_rng(2)
        L = 24
        a = np.cumsum(rng.random((8, L)), axis=1)  # monotone profiles
        dp_src = rng.random((8, L)) + 0.5
        dp_tgt = np.repeat(dp_src.sum(axis=1, keepdims=True) / L, L, axis=1)
        out = remap_ppm(a, dp_src, dp_tgt)
        assert out.max() <= a.max() + 1e-10
        assert out.min() >= a.min() - 1e-10

    def test_constant_preserved_exactly(self):
        dp_src = np.random.default_rng(3).random((5, 12)) + 0.5
        L = 12
        dp_tgt = np.repeat(dp_src.sum(axis=1, keepdims=True) / L, L, axis=1)
        out = remap_ppm(np.full((5, 12), 3.7), dp_src, dp_tgt)
        assert np.allclose(out, 3.7, rtol=1e-12)

    def test_mismatched_totals_rejected(self):
        a = np.ones((2, 4))
        with pytest.raises(KernelError):
            remap_ppm(a, np.full((2, 4), 1.0), np.full((2, 4), 2.0))

    def test_nonpositive_dp_rejected(self):
        a = np.ones((1, 4))
        dp = np.array([[1.0, -1.0, 1.0, 1.0]])
        with pytest.raises(KernelError):
            remap_ppm(a, dp, dp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["dp_src", "dp_tgt"])
    def test_nonfinite_dp_rejected(self, bad, which):
        grids = {"dp_src": np.ones((2, 4)), "dp_tgt": np.ones((2, 4))}
        grids[which][1, 2] = bad
        with pytest.raises(KernelError, match="positive and finite"):
            remap_ppm(np.ones((2, 4)), **grids)

    def test_shape_mismatch_rejected(self):
        dp = np.ones((2, 4))
        with pytest.raises(KernelError, match="share shapes"):
            remap_ppm(np.ones((2, 5)), dp, dp)
        with pytest.raises(KernelError, match="share shapes"):
            remap_ppm(np.ones((2, 4)), dp, np.ones((2, 5)))
        with pytest.raises(KernelError, match="share shapes"):
            RemapPlan(dp.T, dp.T).apply(np.ones((5, 2)))

    @given(
        seed=st.integers(0, 10_000),
        ncol=st.integers(1, 6),
        L=st.sampled_from([2, 3, 4, 5, 16]),
        grids=st.sampled_from(["random", "identical", "coincident"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_plan_equals_the_per_level_oracle_bitwise(self, seed, ncol, L, grids):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((ncol, L)) * 10
        a[:, ::3] = np.round(a[:, ::3])  # flat runs and exact extrema
        if grids == "coincident":
            # Small-integer thicknesses sum exactly, so a per-column
            # shuffle of the source layers puts target interfaces exactly
            # on source interfaces: the ``<=`` tie of the locate step.
            dp_src = rng.integers(1, 4, (ncol, L)).astype(float)
            dp_tgt = rng.permuted(dp_src, axis=1)
        else:
            dp_src = rng.random((ncol, L)) + 0.2
            dp_tgt = rng.random((ncol, L)) + 0.2
            dp_tgt *= (dp_src.sum(axis=1) / dp_tgt.sum(axis=1))[:, None]
            if grids == "identical":
                dp_tgt = dp_src.copy()
        expected = oracle_remap_ppm(a, dp_src, dp_tgt)
        got = remap_ppm(a, dp_src, dp_tgt)
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        # One plan, many fields, layers first: what vertical_remap runs.
        plan = RemapPlan(dp_src.T, dp_tgt.T)
        for field in (a, -a, np.abs(a)):
            assert np.array_equal(plan.apply(field.T).T,
                                  oracle_remap_ppm(field, dp_src, dp_tgt))
        for got_e, exp_e in zip(ppm_edge_values(a), oracle_edge_values(a)):
            assert got_e.tobytes() == np.ascontiguousarray(exp_e).tobytes()

    def test_vertical_remap_peak_memory_is_a_few_states(self):
        """No (ncol, L, L) locate, no all-fields stack: nlev defaults to 128."""
        cfg = ModelConfig(ne=2, nlev=128, qsize=2)
        geom = ElementGeometry(CubedSphereMesh(cfg.ne))
        state = make_state(cfg, geom, wind=0.0, tnoise=0.0)
        state.dp3d *= 1.0 + 0.05 * np.sin(np.arange(cfg.nlev))[None, :, None, None]
        dp_src = np.moveaxis(state.dp3d, 1, 0)
        dp_tgt = np.moveaxis(vertical_remap(state).dp3d, 1, 0)

        def peak_of(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Locating holds ~13 (L, ncol) arrays at its peak; one boolean
        # (ncol, L, L) compare alone is 16 of them at L = 128.
        assert peak_of(lambda: RemapPlan(dp_src, dp_tgt)) < 20 * state.dp3d.nbytes
        # Field by field the whole remap peaks at ~4 states (the new
        # state, the plan, one field's temporaries); stacking the 3 + Q
        # fields multiplies the temporaries by 5 (> 8 states).
        state_bytes = sum(x.nbytes for x in (state.v, state.T, state.dp3d, state.qdp))
        assert peak_of(lambda: vertical_remap(state)) < 6 * state_bytes

    def test_vertical_remap_returns_contiguous_arrays(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        state.dp3d *= 1.0 + 0.05 * np.sin(np.arange(cfg.nlev))[None, :, None, None]
        out = vertical_remap(state)
        for name in ("v", "T", "dp3d", "qdp"):
            assert getattr(out, name).flags.c_contiguous, name
            assert getattr(out, name) is not getattr(state, name)

    def test_vertical_remap_restores_reference(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        # Let the layers float a little.
        state.dp3d *= 1.0 + 0.05 * np.sin(np.arange(cfg.nlev))[None, :, None, None]
        out = vertical_remap(state)
        # Output thicknesses are uniform per column.
        spread = out.dp3d.max(axis=1) - out.dp3d.min(axis=1)
        assert np.abs(spread).max() < 1e-9
        # Surface pressure unchanged.
        assert np.allclose(out.ps(PTOP), state.ps(PTOP), rtol=1e-12)

    def test_vertical_remap_conserves_tracer_mass(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom)
        state.dp3d *= 1.0 + 0.05 * np.cos(np.arange(cfg.nlev))[None, :, None, None]
        m0 = total_tracer_mass(state, geom)
        out = vertical_remap(state)
        assert np.allclose(total_tracer_mass(out, geom), m0, rtol=1e-10)

    def test_ppm_edges_monotone_clamped(self):
        a = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        aL, aR = ppm_edge_values(a)
        assert np.all(aL <= a + 1e-12)
        assert np.all(aR >= a - 1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        L=st.integers(min_value=4, max_value=32),
    )
    @settings(max_examples=30, deadline=None)
    def test_remap_conservation_property(self, seed, L):
        rng = np.random.default_rng(seed)
        a = rng.random((3, L)) * 10
        dp_src = rng.random((3, L)) + 0.2
        dp_tgt = rng.random((3, L)) + 0.2
        dp_tgt *= (dp_src.sum(axis=1) / dp_tgt.sum(axis=1))[:, None]
        out = remap_ppm(a, dp_src, dp_tgt)
        assert np.allclose(
            np.sum(out * dp_tgt, axis=1), np.sum(a * dp_src, axis=1), rtol=1e-9
        )
        assert out.max() <= a.max() + 1e-9
        assert out.min() >= a.min() - 1e-9


class TestHypervis:
    def test_nu_scaling(self):
        assert nu_for_ne(30) == pytest.approx(1e15)
        assert nu_for_ne(120) < nu_for_ne(30)
        ratio = nu_for_ne(30) / nu_for_ne(60)
        assert ratio == pytest.approx(2**3.2, rel=1e-12)

    def test_smooths_noise(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom, wind=0.0, tnoise=0.0)
        rng = np.random.default_rng(5)
        noise = geom.dss(rng.standard_normal(state.T.shape))
        state.T = 300.0 + noise
        var0 = np.var(state.T)
        model = whole_mesh(cfg, mesh, state)
        timestep.advance_hypervis(model, model.states)
        assert np.var(model.state.T) < var0

    def test_constant_field_unchanged(self, domain):
        cfg, mesh, geom = domain
        state = make_state(cfg, geom, wind=0.0, tnoise=0.0)
        T0 = state.T.copy()
        model = whole_mesh(cfg, mesh, state)
        timestep.advance_hypervis(model, model.states)
        assert np.allclose(model.state.T, T0, atol=1e-8)

    def test_biharmonic_of_constant_zero(self, domain):
        cfg, mesh, geom = domain
        model = whole_mesh(cfg, mesh, make_state(cfg, geom))
        shape = (geom.nelem, cfg.nlev, 4, 4)
        consts = (np.full(shape, 300.0), np.zeros(shape + (2,)),
                  np.full(shape, 500.0))
        (bih_T, bih_v, bih_dp), = timestep.biharmonic(
            model, dycore.prim_laplace_task, [consts], slot0=0)
        for bih in (bih_T, bih_v, bih_dp):
            assert np.abs(bih).max() < 1e-12

    def test_dp1_dp2_pipeline(self, domain):
        cfg, mesh, geom = domain
        model = whole_mesh(cfg, mesh, make_state(cfg, geom))
        timestep.advance_hypervis(model, model.states)
        s = model.state
        assert np.isfinite(s.v).all() and np.isfinite(s.T).all()
        assert np.isfinite(s.dp3d).all()

    def test_subcycle_count_grows_with_nu(self):
        few = hypervis_stable_subcycles(300.0, 1e13, 30, C.EARTH_RADIUS)
        many = hypervis_stable_subcycles(300.0, 1e16, 30, C.EARTH_RADIUS)
        assert many >= few

    def test_invalid_args(self):
        with pytest.raises(KernelError):
            nu_for_ne(1)
