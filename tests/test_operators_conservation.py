"""Closing conservation checks on the weak-form operators and limiter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ModelConfig
from repro.homme import operators as op
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.euler import limit_local
from repro.homme.timestep import PrimitiveEquationModel, euler_step_subcycled
from repro.mesh import CubedSphereMesh


@pytest.fixture(scope="module")
def setup():
    mesh = CubedSphereMesh(ne=6)
    return mesh, ElementGeometry(mesh)


@pytest.fixture(scope="module")
def still_model(setup):
    """A one-shard model at rest: its euler phase's SSP stages leave qdp
    as it is, so the phase is DSS, limiter and closing DSS."""
    mesh, _ = setup
    cfg = ModelConfig(ne=6, nlev=3, qsize=1, tracer_subcycles=1)
    return PrimitiveEquationModel(cfg, mesh, dt=600.0)


class TestWeakLaplacianConservation:
    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_integral_exactly_zero(self, setup, seed):
        """The partition-of-unity property: the assembled weak Laplacian
        integrates to zero for ANY field — the mechanism that keeps
        hyperviscosity mass-conserving."""
        mesh, geom = setup
        f = np.random.default_rng(seed).standard_normal((mesh.nelem, 4, 4))
        lw = mesh.dss(op.laplace_sphere_wk(f, geom))
        total = mesh.global_integral(lw)
        scale = mesh.global_integral(np.abs(lw))
        assert abs(total) / max(scale, 1e-30) < 1e-10

    def test_agrees_with_strong_form_when_smooth(self, setup):
        mesh, geom = setup
        f = np.sin(mesh.lat)
        lw = mesh.dss(op.laplace_sphere_wk(f, geom))
        ls = mesh.dss(op.laplace_sphere(f, geom))
        assert np.allclose(lw, ls, rtol=0.05, atol=np.abs(ls).max() * 0.05)

    def test_negative_semidefinite(self, setup):
        """integral of f * lap_wk(f) <= 0: diffusion dissipates variance."""
        mesh, geom = setup
        rng = np.random.default_rng(1)
        f = mesh.dss(rng.standard_normal((mesh.nelem, 4, 4)))
        lw = mesh.dss(op.laplace_sphere_wk(f, geom))
        assert mesh.global_integral(f * lw) < 0


class TestLimiterProperties:
    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_positivity_and_global_mass(self, setup, still_model, seed):
        """The euler phase leaves no negatives, and its global fixer
        restores per-level mass wherever it is positive."""
        mesh, geom = setup
        rng = np.random.default_rng(seed)
        qdp = rng.standard_normal((mesh.nelem, 1, 3, 4, 4)) + 0.8
        w = geom.spheremp[:, None, None]
        m0 = np.sum(qdp * w, axis=(0, 3, 4))
        still_model.state.qdp = qdp
        states = still_model.states
        euler_step_subcycled(still_model, states)
        still_model.states = states
        out = still_model.state.qdp
        assert out.min() >= 0.0
        m1 = np.sum(out * w, axis=(0, 3, 4))
        pos = m0 > 0
        assert np.allclose(m1[pos], m0[pos], rtol=1e-10)

    def test_nonnegative_field_unchanged(self, setup):
        mesh, geom = setup
        qdp = np.abs(np.random.default_rng(2).standard_normal((mesh.nelem, 2, 4, 4)))
        out, before, after = limit_local(qdp, geom)
        assert np.allclose(out, qdp, rtol=1e-12)
        assert np.array_equal(before, after)


class TestGeometryEdgeCases:
    def test_subset_geometry_operators(self, setup):
        """Element-local operators give identical results on a subset
        view as on the full mesh (the distributed-dycore invariant)."""
        mesh, geom = setup
        sub = ElementGeometry(mesh, np.arange(10, 30))
        f = np.sin(mesh.lat) * np.cos(mesh.lon)
        full = op.laplace_sphere(f, geom)
        part = op.laplace_sphere(f[10:30], sub)
        assert np.array_equal(part, full[10:30])

    def test_subset_gradient_matches(self, setup):
        mesh, geom = setup
        sub = ElementGeometry(mesh, np.arange(0, 12))
        f = np.cos(mesh.lat) ** 2
        assert np.array_equal(
            op.gradient_sphere(f[:12], sub), op.gradient_sphere(f, geom)[:12]
        )

    def test_state_consistency_validator(self, setup):
        mesh, geom = setup
        cfg = ModelConfig(ne=6, nlev=4, qsize=1)
        state = ElementState.isothermal_rest(geom, cfg)
        state.check_consistent()
        bad = state.copy()
        bad.v = bad.v[:, :2]
        from repro.errors import KernelError

        with pytest.raises(KernelError):
            bad.check_consistent()
