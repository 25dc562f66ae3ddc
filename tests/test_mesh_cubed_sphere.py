"""Tests for cubed-sphere geometry: metric exactness, DSS, wind conversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants as C
from repro.errors import MeshError
from repro.mesh import CubedSphereMesh


@pytest.fixture(scope="module")
def mesh4():
    return CubedSphereMesh(ne=4)


def bincount_dss(mesh, field):
    """Oracle: the per-column ``np.bincount`` form ``CubedSphereMesh.dss``
    had before it moved onto the mesh assembly."""
    flat = field.reshape(mesh.nelem * mesh.np * mesh.np, -1)
    weighted = flat * mesh.dss_weight.reshape(-1, 1)
    gid = mesh.gid.reshape(-1)
    acc = np.empty((mesh.ngid, weighted.shape[1]))
    for k in range(weighted.shape[1]):
        acc[:, k] = np.bincount(gid, weights=weighted[:, k], minlength=mesh.ngid)
    return acc[gid].reshape(field.shape)


class TestConstruction:
    def test_element_count(self, mesh4):
        assert mesh4.nelem == 96

    def test_unique_gll_points_formula(self, mesh4):
        # 6 (ne (np-1))^2 + 2 unique points on the sphere.
        assert mesh4.ngid == 6 * (4 * 3) ** 2 + 2

    def test_points_on_unit_sphere(self, mesh4):
        norms = np.linalg.norm(mesh4.xyz, axis=-1)
        assert np.allclose(norms, 1.0)

    def test_invalid_ne(self):
        with pytest.raises(MeshError):
            CubedSphereMesh(ne=1)

    def test_cube_corner_multiplicity(self, mesh4):
        # Cube corners are shared by exactly 3 elements.
        assert mesh4.multiplicity.max() == 4  # interior face corners
        assert np.sum(mesh4.multiplicity == 3) == 8  # the 8 cube corners


class TestMetric:
    def test_surface_area_converges(self):
        exact = 4 * np.pi * C.EARTH_RADIUS**2
        err4 = abs(CubedSphereMesh(ne=4).surface_area() - exact) / exact
        err8 = abs(CubedSphereMesh(ne=8).surface_area() - exact) / exact
        assert err4 < 1e-6
        assert err8 < err4  # spectral convergence

    def test_metric_from_basis_vectors(self, mesh4):
        # g_ij must equal R^2 e_i . e_j — the analytic formulas agree with
        # the differentiated mapping.
        dots = np.einsum("...ik,...il->...kl", mesh4.e_cov, mesh4.e_cov)
        assert np.allclose(dots * C.EARTH_RADIUS**2, mesh4.met, rtol=1e-12)

    def test_metdet_is_sqrt_det(self, mesh4):
        det = (
            mesh4.met[..., 0, 0] * mesh4.met[..., 1, 1]
            - mesh4.met[..., 0, 1] * mesh4.met[..., 1, 0]
        )
        assert np.allclose(np.sqrt(det), mesh4.metdet, rtol=1e-12)

    def test_metinv_is_inverse(self, mesh4):
        prod = np.einsum("...ij,...jk->...ik", mesh4.met, mesh4.metinv)
        eye = np.broadcast_to(np.eye(2), prod.shape)
        assert np.allclose(prod, eye, atol=1e-10)

    def test_face_center_metric_isotropic(self):
        # At a face center (alpha=beta=0) the metric is R^2 * I.
        m = CubedSphereMesh(ne=2)  # element corner at face center
        idx = np.unravel_index(np.argmin(m.alpha**2 + m.beta**2), m.alpha.shape)
        g = m.met[idx]
        assert np.allclose(g, C.EARTH_RADIUS**2 * np.eye(2), rtol=1e-9)


class TestDSS:
    def test_idempotent(self, mesh4):
        f = np.random.default_rng(0).standard_normal((mesh4.nelem, 4, 4))
        g = mesh4.dss(f)
        assert np.allclose(mesh4.dss(g), g)

    def test_continuous_after_dss(self, mesh4):
        f = np.random.default_rng(1).standard_normal((mesh4.nelem, 4, 4))
        g = mesh4.dss(f)
        acc: dict[int, float] = {}
        for gid, val in zip(mesh4.gid.reshape(-1), g.reshape(-1)):
            assert abs(acc.setdefault(gid, val) - val) < 1e-12

    def test_preserves_continuous_fields(self, mesh4):
        f = np.sin(mesh4.lat) * np.cos(mesh4.lon)
        assert np.allclose(mesh4.dss(f), f, atol=1e-12)

    def test_conserves_integral(self, mesh4):
        f = np.random.default_rng(2).standard_normal((mesh4.nelem, 4, 4))
        assert np.isclose(
            mesh4.global_integral(mesh4.dss(f)),
            mesh4.global_integral(f),
            rtol=1e-12,
        )

    def test_multifield_dss(self, mesh4):
        f = np.random.default_rng(3).standard_normal((mesh4.nelem, 4, 4, 3))
        g = mesh4.dss(f)
        for k in range(3):
            assert np.allclose(g[..., k], mesh4.dss(f[..., k]))

    def test_shape_validation(self, mesh4):
        with pytest.raises(MeshError):
            mesh4.dss(np.zeros((5, 4, 4)))

    @pytest.mark.parametrize("trailing", [(), (1,), (3,), (16,), (8, 3)])
    def test_equals_the_bincount_oracle_bitwise(self, mesh4, trailing):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((mesh4.nelem, 4, 4) + trailing)
        f[rng.random(f.shape) < 0.1] = -0.0
        got = mesh4.dss(f)
        assert got.shape == f.shape and got.dtype == np.float64
        assert got.tobytes() == bincount_dss(mesh4, f).tobytes()

    def test_assembly_tables_equal_add_at(self, mesh4):
        gid = mesh4.gid.reshape(-1)
        assembled = np.zeros(mesh4.ngid)
        np.add.at(assembled, gid, mesh4.spheremp.reshape(-1))
        assert mesh4.assembled_spheremp.tobytes() == assembled.tobytes()
        mult = np.zeros(mesh4.ngid, dtype=np.int64)
        np.add.at(mult, gid, 1)
        assert mesh4.multiplicity.dtype == np.int64
        assert np.array_equal(mesh4.multiplicity, mult)


class TestWindConversion:
    def test_round_trip(self, mesh4):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(mesh4.lat.shape)
        v = rng.standard_normal(mesh4.lat.shape)
        u2, v2 = mesh4.contravariant_to_spherical(
            mesh4.spherical_to_contravariant(u, v)
        )
        assert np.allclose(u, u2, atol=1e-10)
        assert np.allclose(v, v2, atol=1e-10)

    def test_solid_body_rotation_magnitude(self, mesh4):
        # Zonal solid-body wind u = U cos(lat): contravariant components
        # must reproduce |v| = U cos(lat) through the metric norm.
        U = 40.0
        u = U * np.cos(mesh4.lat)
        v = np.zeros_like(u)
        vc = mesh4.spherical_to_contravariant(u, v)
        speed2 = np.einsum("...kl,...k,...l->...", mesh4.met, vc, vc)
        assert np.allclose(np.sqrt(speed2), np.abs(u), rtol=1e-9)

    def test_integral_of_lat_weighted_field(self, mesh4):
        # Integral of sin^2(lat) over sphere = 4 pi R^2 / 3.
        f = np.sin(mesh4.lat) ** 2
        exact = 4 * np.pi * C.EARTH_RADIUS**2 / 3
        assert np.isclose(mesh4.global_integral(f), exact, rtol=1e-5)


class TestScaling:
    @given(ne=st.sampled_from([2, 3, 5, 6]))
    @settings(max_examples=4, deadline=None)
    def test_area_exact_for_any_ne(self, ne):
        m = CubedSphereMesh(ne=ne)
        exact = 4 * np.pi * C.EARTH_RADIUS**2
        assert abs(m.surface_area() - exact) / exact < 1e-4
