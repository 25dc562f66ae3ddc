"""Tests for the physics suite: HS94, Kessler, grey radiation, RJ physics."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ConfigurationError
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.rhs import PTOP, compute_pressure
from repro.mesh import CubedSphereMesh
from repro.physics.held_suarez import (
    equilibrium_temperature,
    held_suarez_forcing,
    relaxation_rates,
)
from repro.physics.kessler import (
    kessler_step,
    saturation_mixing_ratio,
    saturation_vapor_pressure,
)
from repro.physics.pbl import drag_coefficient
from repro.physics.radiation import (
    grey_lw_fluxes,
    radiative_heating,
    surface_temperature,
)
from repro.physics.simple_physics import SimplePhysics, large_scale_condensation
from repro.physics.suite import PhysicsSuite


@pytest.fixture(scope="module")
def domain():
    cfg = ModelConfig(ne=4, nlev=8, qsize=3)
    mesh = CubedSphereMesh(cfg.ne)
    geom = ElementGeometry(mesh)
    return cfg, mesh, geom


class TestHeldSuarez:
    def test_equilibrium_warmer_at_equator(self, domain):
        cfg, mesh, geom = domain
        p = np.full((geom.nelem, 1, 4, 4), 90000.0)
        teq = equilibrium_temperature(p, geom.lat)
        eq_t = teq[np.abs(geom.lat[:, None]) < 0.1]
        pole_t = teq[np.abs(geom.lat[:, None]) > 1.2]
        assert eq_t.mean() > pole_t.mean() + 20

    def test_stratosphere_floor(self, domain):
        cfg, mesh, geom = domain
        p = np.full((geom.nelem, 1, 4, 4), 500.0)  # very high up
        teq = equilibrium_temperature(p, geom.lat)
        assert np.all(teq >= 200.0)
        assert np.any(teq == 200.0)

    def test_friction_only_below_sigma_b(self, domain):
        cfg, mesh, geom = domain
        sigma = np.full((geom.nelem, 1, 4, 4), 0.5)
        _, kv = relaxation_rates(sigma, geom.lat)
        assert np.all(kv == 0.0)
        sigma_low = np.full((geom.nelem, 1, 4, 4), 1.0)
        _, kv_low = relaxation_rates(sigma_low, geom.lat)
        assert np.all(kv_low > 0.0)

    def test_forcing_relaxes_toward_equilibrium(self, domain):
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg, T0=300.0)
        p_mid, _ = compute_pressure(state.dp3d)
        teq = equilibrium_temperature(p_mid, geom.lat)
        d0 = np.abs(state.T - teq).mean()
        held_suarez_forcing(state, geom, 0.0, dt=6 * 3600.0)
        d1 = np.abs(state.T - teq).mean()
        assert d1 < d0

    def test_forcing_damps_surface_wind(self, domain):
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg)
        state.v[:, -1] = 1e-6
        held_suarez_forcing(state, geom, 0.0, dt=86400.0)
        assert np.all(np.abs(state.v[:, -1]) < 1e-6)

    def test_implicit_never_overshoots(self, domain):
        # Even an absurd dt cannot push T past T_eq.
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg, T0=400.0)
        p_mid, _ = compute_pressure(state.dp3d)
        teq = equilibrium_temperature(p_mid, geom.lat)
        held_suarez_forcing(state, geom, 0.0, dt=1e9)
        assert np.all(state.T >= teq - 1e-6)


class TestKessler:
    def test_saturation_pressure_monotone(self):
        T = np.linspace(230, 310, 50)
        es = saturation_vapor_pressure(T)
        assert np.all(np.diff(es) > 0)

    def test_saturation_pressure_at_freezing(self):
        assert saturation_vapor_pressure(np.array([273.15]))[0] == pytest.approx(
            610.78, rel=1e-6
        )

    def test_condensation_releases_heat(self):
        T = np.full(4, 290.0)
        p = np.full(4, 95000.0)
        qvs = saturation_mixing_ratio(T, p)
        qv = qvs * 1.2  # 20% supersaturated
        T2, qv2, qc2, qr2, _ = kessler_step(T, qv, np.zeros(4), np.zeros(4), p, dt=60.0)
        assert np.all(T2 > T)
        assert np.all(qv2 < qv)
        assert np.all(qc2 + qr2 > 0)

    def test_subsaturated_nothing_condenses(self):
        T = np.full(4, 290.0)
        p = np.full(4, 95000.0)
        qv = saturation_mixing_ratio(T, p) * 0.5
        T2, qv2, qc2, _, precip = kessler_step(T, qv, np.zeros(4), np.zeros(4), p, dt=60.0)
        assert np.allclose(T2, T)
        assert np.allclose(qv2, qv)
        assert np.all(qc2 == 0)

    def test_water_mass_plus_precip_conserved(self):
        rng = np.random.default_rng(0)
        T = 280 + 20 * rng.random(16)
        p = 9e4 + 1e4 * rng.random(16)
        qv = 0.02 * rng.random(16)
        qc = 0.002 * rng.random(16)
        qr = 0.001 * rng.random(16)
        T2, qv2, qc2, qr2, precip = kessler_step(T, qv, qc, qr, p, dt=120.0)
        before = qv + qc + qr
        after = qv2 + qc2 + qr2 + precip
        assert np.allclose(after, before, atol=1e-12)

    def test_autoconversion_threshold(self):
        # Saturated air so the cloud is not evaporated away first.
        T = np.full(2, 290.0)
        p = np.full(2, 95000.0)
        qv = saturation_mixing_ratio(T, p)
        qc = np.array([5e-4, 5e-3])  # below, above threshold
        _, _, qc2, qr2, precip = kessler_step(T, qv, qc, np.zeros(2), p, dt=60.0)
        assert precip[0] == 0.0  # below threshold: no rain formed
        assert precip[1] > 0.0


class TestRadiation:
    def test_fluxes_positive_and_bounded(self, domain):
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg, T0=280.0)
        p_mid, _ = compute_pressure(state.dp3d)
        ps = state.ps(PTOP)
        Ts = surface_temperature(geom.lat)
        F_up, F_dn = grey_lw_fluxes(state.T, p_mid, ps, Ts, geom.lat)
        assert np.all(F_up >= 0) and np.all(F_dn >= 0)
        assert np.all(F_dn[:, 0] == 0.0)  # no LW from space
        sb_max = 5.67e-8 * 305.0**4
        assert F_up.max() <= sb_max * 1.01

    def test_olr_reasonable(self, domain):
        # Outgoing LW at the top should be ~150-320 W/m^2 for Earth-like T.
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg, T0=270.0)
        p_mid, _ = compute_pressure(state.dp3d)
        ps = state.ps(PTOP)
        Ts = surface_temperature(geom.lat)
        F_up, _ = grey_lw_fluxes(state.T, p_mid, ps, Ts, geom.lat)
        olr = F_up[:, 0]
        assert 100 < olr.mean() < 400

    def test_heating_cools_isothermal_atmosphere(self, domain):
        # An isothermal atmosphere over a same-temperature surface loses
        # energy to space: net heating is negative somewhere aloft.
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg, T0=280.0)
        p_mid, _ = compute_pressure(state.dp3d)
        ps = state.ps(PTOP)
        h = radiative_heating(
            state.T, p_mid, state.dp3d, ps, np.full_like(ps, 280.0), geom.lat
        )
        assert h.mean() < 0

    def test_surface_temperature_gradient(self, domain):
        cfg, mesh, geom = domain
        Ts = surface_temperature(geom.lat)
        assert Ts.max() <= 302.0 + 1e-9
        assert Ts.min() >= 271.0 - 1e-9


class TestPBL:
    def test_drag_coefficient_caps(self):
        assert drag_coefficient(np.array([0.0]))[0] == pytest.approx(7e-4)
        assert drag_coefficient(np.array([100.0]))[0] == pytest.approx(2e-3)


class TestSimplePhysics:
    def test_condensation_removes_supersaturation(self):
        T = np.full((2, 3), 300.0)
        p = np.full((2, 3), 95000.0)
        qvs = saturation_mixing_ratio(T, p)
        qv = qvs * 1.5
        T2, qv2, precip = large_scale_condensation(T, qv, p, dt=60.0)
        qvs2 = saturation_mixing_ratio(T2, p)
        # One Newton step gets within a few percent of saturation.
        assert np.all(qv2 <= qvs * 1.5)
        assert np.all(np.abs(qv2 / qvs2 - 1.0) < 0.1)
        assert np.all(precip > 0)

    def test_surface_fluxes_moisten_and_warm(self, domain):
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg, T0=290.0)
        u = 15.0 * np.cos(geom.lat)
        state.v[:] = geom.mesh.spherical_to_contravariant(u, np.zeros_like(u))[:, None]
        state.qdp[:, 0] = 1e-4 * state.dp3d
        phys = SimplePhysics(sst=302.15)
        q0 = state.qdp[:, 0, -1].mean()
        T0 = state.T[:, -1].mean()
        phys(state, geom, 0.0, dt=1800.0)
        assert state.qdp[:, 0, -1].mean() > q0
        assert state.T[:, -1].mean() > T0

    def test_drag_decays_surface_wind(self, domain):
        cfg, mesh, geom = domain
        state = ElementState.isothermal_rest(geom, cfg, T0=290.0)
        u = 30.0 * np.cos(geom.lat)
        state.v[:] = geom.mesh.spherical_to_contravariant(u, np.zeros_like(u))[:, None]
        state.qdp[:, 0] = 1e-3 * state.dp3d
        v_low0 = np.abs(state.v[:, -1]).max()
        SimplePhysics()(state, geom, 0.0, dt=1800.0)
        assert np.abs(state.v[:, -1]).max() < v_low0


class TestPhysicsSuite:
    def test_unknown_process_rejected(self):
        with pytest.raises(ConfigurationError):
            PhysicsSuite(("magic",))

    def test_kessler_requires_tracers(self, domain):
        cfg, mesh, geom = domain
        suite = PhysicsSuite(("kessler",))
        state = ElementState.isothermal_rest(geom, cfg.with_(qsize=1))
        with pytest.raises(ConfigurationError):
            suite(state, geom, 0.0, 600.0)

    def test_process_order_applied(self, domain):
        cfg, mesh, geom = domain
        suite = PhysicsSuite(("radiation", "held_suarez"))
        state = ElementState.isothermal_rest(geom, cfg)
        T0 = state.T.copy()
        suite(state, geom, 0.0, 1800.0)
        assert not np.allclose(state.T, T0)

    def test_flops_per_column_scales_with_processes(self):
        a = PhysicsSuite(("held_suarez",)).flops_per_column_level()
        b = PhysicsSuite(("held_suarez", "kessler", "radiation")).flops_per_column_level()
        assert b > a
