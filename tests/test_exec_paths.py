"""Cross-validation of the fused (production) vs batched (reference)
execution paths, and the read-only contract of the geometry and the
operator tensors cached on it.

The fused path is only trusted because every dispatchable kernel agrees
with its batched twin to 1e-12 on the same inputs — a Hypothesis
property over meshes, level counts, element subsets, seeds and
topography (mutation-checked), analytic shallow-water states, and full
timestep trajectories; the batched reference itself is checked to be
element-local and tracer-local.  The tensor cache is only trusted
because nothing it derives from, and nothing it hands out, can be
written in place.
"""

import dataclasses
import functools
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.backends.functional_exec import EXECUTION_PATHS, homme_execution
from repro.config import ModelConfig
from repro.errors import KernelError
from repro.homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.euler import (
    element_mass,
    limit_local,
    restoring_scale,
    ssp_stage1,
    ssp_stage2,
    sum_elements,
)
from repro.homme.shallow_water import (
    ShallowWaterModel,
    rossby_haurwitz_initial,
    williamson2_initial,
)
from repro.homme import timestep
from repro.homme.tensors import OperatorTensors
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh.cubed_sphere import CubedSphereMesh
from repro.parallel import dycore

RTOL = 1e-12


@pytest.fixture(scope="module")
def mesh4():
    return CubedSphereMesh(4, 4)


def seeded_state(geom, cfg, seed):
    """A dynamically active primitive-equation state from ``seed``."""
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(seed)
    state.v += 1e-5 * rng.standard_normal(state.v.shape)
    state.T += rng.standard_normal(state.T.shape)
    state.qdp[:] = (0.5 + rng.random(state.qdp.shape)) * state.dp3d[:, None]
    return state


@pytest.fixture(scope="module")
def prim_setup(mesh4):
    geom = ElementGeometry(mesh4)
    cfg = ModelConfig(ne=4, nlev=6, qsize=3)
    return cfg, geom, seeded_state(geom, cfg, 42)


def euler_phase(cfg, mesh, state, limiter):
    """The recipe's batched euler phase, one 60 s subcycle on the one-shard
    layout; returns the new qdp.  ``limiter=False`` stops after the two
    SSP-RK2 stages and their DSS."""
    dt = 60.0
    cfg = cfg.with_(qsize=state.qdp.shape[1], tracer_subcycles=1)
    model = PrimitiveEquationModel(cfg, mesh, init=state, dt=dt,
                                   exec_path="batched")
    if limiter:
        states = model.states
        timestep.euler_step_subcycled(model, states)
        model.states = states
        return model.state.qdp
    qdp = model.state.qdp
    adv = homme_execution("batched").tracer_tendency(model.state.v, model.geom)
    st1, = timestep._dss_stack(model, [ssp_stage1(qdp, adv, dt)], slot=0)
    st2, = timestep._dss_stack(model, [ssp_stage2(qdp, st1, adv, dt)], slot=1)
    return st2


#: The one unknown-path error, whoever is asked (a regex; format the name in).
UNKNOWN_PATH = r"unknown execution path {!r}; choose from \['batched', 'fused'\]"


def rel_err(a, b):
    scale = max(float(np.max(np.abs(a))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


@functools.cache
def _mesh(ne):
    return CubedSphereMesh(ne, 4)


@st.composite
def kernel_cases(draw):
    """``(ne, elems, nlev, seed, topography)``: 1-6 levels on the whole of
    an ne 2-4 mesh (``elems`` None) or on an element subset of it, with
    or without topography (:func:`build_case`)."""
    ne = draw(st.sampled_from([2, 3, 4]))
    nelem = 6 * ne * ne
    elems = draw(st.none() | st.lists(st.integers(0, nelem - 1), min_size=1,
                                      max_size=nelem, unique=True))
    return (ne, elems, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1)),
            draw(st.booleans()))


def build_case(ne, elems, nlev, seed, topography):
    """``(state, geom, phis)`` of a :func:`kernel_cases` draw."""
    mesh = _mesh(ne)
    geom = ElementGeometry(mesh, elems)
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=2)
    phis = random_phis(geom, seed + 1) if topography else None
    return seeded_state(geom, cfg, seed), geom, phis


#: Every dispatchable kernel's outputs, in :func:`kernel_outputs` order.
KERNELS = ("compute_rhs.dv", "compute_rhs.dT", "compute_rhs.ddp",
           "sw_rhs.dh", "sw_rhs.dv", "laplace_wk", "vlaplace",
           "tracer_tendency")


def kernel_outputs(path, state, geom, phis):
    ex = homme_execution(path)
    return (*ex.compute_rhs(state, geom, phis),
            *ex.sw_rhs(state.T[:, 0], state.v[:, 0], geom),
            ex.laplace_wk(state.T, geom), ex.vlaplace(state.v, geom),
            ex.tracer_tendency(state.v, geom)(state.qdp))


def disagreements(case):
    """Per kernel output, the fused kernel's relative disagreement with
    its batched twin on a :func:`kernel_cases` draw."""
    return disagreements_on(*build_case(*case))


def disagreements_on(state, geom, phis=None):
    """Per kernel output, the fused kernel's relative disagreement with
    its batched twin on ``state``."""
    args = (state, geom, phis)
    return {k: rel_err(b, f) for k, b, f in zip(
        KERNELS, kernel_outputs("batched", *args), kernel_outputs("fused", *args),
        strict=True)}


def random_phis(geom, seed):
    return 100.0 * np.random.default_rng(seed).random(
        (geom.nelem, geom.np, geom.np))


_FUSED = OperatorTensors.fused


def swapped_wk(tensors):
    """Mutant operands: the weak Laplacian's ``wk01`` and ``wk11`` swapped."""
    f = _FUSED(tensors)
    return dataclasses.replace(f, wk01=f.wk11, wk11=f.wk01, _bcache={})


def nudged_imdj(tensors):
    """Mutant operands: ``imdj`` scaled by 1 + 1e-9."""
    f = _FUSED(tensors)
    return dataclasses.replace(f, imdj=f.imdj * (1 + 1e-9), _bcache={})


def _build(cls, mesh, cfg, state, **kw):
    """Construct any of the four models with the smallest valid inputs."""
    if cls is ShallowWaterModel:
        return cls(mesh, **kw)
    if cls is PrimitiveEquationModel:
        return cls(cfg, mesh=mesh, init=state.copy(), **kw)
    if cls is DistributedShallowWater:
        return cls(mesh, nranks=2, **kw)
    return cls(cfg, mesh, state, nranks=2, **{"dt": 300.0, **kw})


MODELS = [ShallowWaterModel, PrimitiveEquationModel,
          DistributedShallowWater, DistributedPrimitiveEquations]


class TestDispatch:
    def test_registry_has_all_paths(self):
        assert set(EXECUTION_PATHS) == {"fused", "batched"}
        for ex in EXECUTION_PATHS.values():
            assert callable(ex.compute_rhs) and callable(ex.sw_rhs)

    @pytest.mark.parametrize("cls", MODELS, ids=lambda c: c.__name__)
    def test_models_default_to_fused(self, cls):
        assert inspect.signature(cls).parameters["exec_path"].default == "fused"

    def test_unknown_path_rejected(self):
        with pytest.raises(KernelError, match="unknown execution path"):
            homme_execution("vectorized")

    def test_sw_model_unknown_path_rejected(self, mesh4):
        with pytest.raises(KernelError, match=UNKNOWN_PATH.format("gpu")):
            ShallowWaterModel(mesh4, exec_path="gpu")

    @pytest.mark.parametrize("cls", MODELS[1:], ids=lambda c: c.__name__)
    def test_model_unknown_path_rejected(self, mesh4, prim_setup, cls):
        cfg, _, state = prim_setup
        with pytest.raises(KernelError, match=UNKNOWN_PATH.format("looped")):
            _build(cls, mesh4, cfg, state, exec_path="looped")

    def test_task_meta_without_path_fails_loudly(self, mesh4):
        from repro.parallel.dycore import prim_laplace_task

        geom = ElementGeometry(mesh4, [0, 1])
        f = np.zeros((2, 3, 4, 4))
        with pytest.raises(KeyError, match="path"):
            prim_laplace_task(geom, {"ctx": 0}, f, np.zeros(f.shape + (2,)), f)


class TestTimeStepValidation:
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("cls", MODELS, ids=lambda c: c.__name__)
    def test_bad_dt_rejected_at_construction(self, mesh4, prim_setup, cls, dt):
        """Every model stepped happily with these (``nan`` silently
        produced a non-finite state); now none is built."""
        cfg, _, state = prim_setup
        with pytest.raises(KernelError, match=f"dt must be finite.*{dt!r}"):
            _build(cls, mesh4, cfg, state, dt=dt)


class TestCrossValidation:
    def test_random_state_all_kernels(self, prim_setup):
        _, geom, state = prim_setup
        errs = disagreements_on(state, geom)
        assert max(errs.values()) <= RTOL, errs

    def test_random_state_with_topography(self, prim_setup):
        _, geom, state = prim_setup
        errs = disagreements_on(state, geom, random_phis(geom, 3))
        assert max(errs.values()) <= RTOL, errs

    @pytest.mark.parametrize("elems", [[0], [37], [5, 95]])
    def test_reference_kernels_are_element_local(self, mesh4, prim_setup, elems):
        # The batched kernels on a sub-geometry of a few elements give
        # the rows the whole-mesh call gives: no kernel reads across
        # elements, so a rank shard may be any element subset.
        _, geom, state = prim_setup
        sub = ElementGeometry(mesh4, elems)
        part = ElementState(v=state.v[elems], T=state.T[elems],
                            dp3d=state.dp3d[elems], qdp=state.qdp[elems])
        b = homme_execution("batched")
        whole = (*b.compute_rhs(state, geom),
                 *b.sw_rhs(state.T[:, 0], state.v[:, 0], geom),
                 b.laplace_wk(state.T, geom), b.vlaplace(state.v, geom))
        local = (*b.compute_rhs(part, sub),
                 *b.sw_rhs(part.T[:, 0], part.v[:, 0], sub),
                 b.laplace_wk(part.T, sub), b.vlaplace(part.v, sub))
        for w, loc in zip(whole, local):
            assert rel_err(w[elems], loc) <= RTOL

    @pytest.mark.parametrize("limiter", [True, False])
    def test_all_tracer_stage_equals_single_tracer_stages(
            self, mesh4, prim_setup, limiter):
        # Advecting, assembling and limiting every tracer in one shot
        # equals Q independent single-tracer steps.
        cfg, _, state = prim_setup
        together = euler_phase(cfg, mesh4, state, limiter)
        for q in range(state.qdp.shape[1]):
            one = ElementState(v=state.v, T=state.T, dp3d=state.dp3d,
                               qdp=state.qdp[:, q:q + 1])
            alone = euler_phase(cfg, mesh4, one, limiter)
            assert rel_err(together[:, q:q + 1], alone) <= RTOL

    def test_euler_unknown_path_rejected(self, mesh4, prim_setup):
        # At construction, so no model has an euler phase on it, and in
        # the euler tasks, which resolve their kernels by name.
        cfg, geom, state = prim_setup
        with pytest.raises(KernelError, match=UNKNOWN_PATH.format("simd")):
            PrimitiveEquationModel(cfg, mesh4, init=state, exec_path="simd")
        with pytest.raises(KernelError, match=UNKNOWN_PATH.format("simd")):
            dycore.prim_euler_stage1_task(
                geom, {"path": "simd", "sdt": 60.0}, state.qdp, state.v)

    def test_limiter_rank5_matches_per_tracer(self, prim_setup):
        _, geom, state = prim_setup
        dirty = state.qdp - 0.6 * np.mean(state.qdp)
        all_at_once = limit_local(dirty, geom)
        per_tracer = [limit_local(dirty[:, q], geom) for q in range(dirty.shape[1])]
        for k, whole in enumerate(all_at_once):
            alone = np.stack([p[k] for p in per_tracer], axis=1)
            assert rel_err(whole, alone) <= RTOL

    def test_limiter_is_the_local_pass_times_one_global_scale(self, prim_setup):
        """The euler phase's limiter — ``limit_local`` on the shards, two
        mesh sums, one scale per tracer and level — leaves no negatives
        and restores each level's global mass."""
        _, geom, state = prim_setup
        dirty = state.qdp - 0.6 * np.mean(state.qdp)
        limited, before, after = limit_local(dirty, geom)
        assert before.shape == after.shape == dirty.shape[:3]
        assert (limited >= 0).all()
        total = sum_elements(before)
        scale = restoring_scale(total, sum_elements(after))
        fixed = limited * scale[None, ..., None, None]
        assert (fixed >= 0).all() and (total > 0).all()
        assert rel_err(sum_elements(element_mass(fixed, geom)), total) <= RTOL


class TestTensorCache:
    def test_tensors_are_memoized(self, mesh4):
        geom = ElementGeometry(mesh4)
        t1 = geom.tensors
        t2 = geom.tensors
        assert t1 is t2

    def test_cache_contents_match_geometry(self, mesh4):
        geom = ElementGeometry(mesh4)
        t = geom.tensors
        np.testing.assert_array_equal(t.Dt, geom.D.T)
        np.testing.assert_allclose(t.inv_jac * geom.jac, 1.0)
        np.testing.assert_array_equal(t.met01, geom.met[..., 0, 1])
        np.testing.assert_array_equal(t.metinv11, geom.metinv[..., 1, 1])
        np.testing.assert_allclose(t.inv_spheremp * geom.spheremp, 1.0)

    def test_fused_operands_are_memoized(self, mesh4):
        geom = ElementGeometry(mesh4)
        t = geom.tensors
        f = t.fused()
        assert t.fused() is f
        planes = _planes(f)
        assert all(a.dtype == np.float64 and a.flags.c_contiguous
                   for _, a in planes), [n for n, _ in planes]

    def test_fused_operands_fold_correctly(self, mesh4):
        geom = ElementGeometry(mesh4)
        t = geom.tensors
        f = t.fused()
        np.testing.assert_allclose(f.mi01j, t.metinv01 * t.inv_jac)
        np.testing.assert_allclose(f.wk11, t.wk_fac * t.metinv11 * t.inv_jac)
        np.testing.assert_allclose(f.wk_out, -(t.inv_jac * t.inv_spheremp))
        np.testing.assert_allclose(f.imdj, t.inv_metdet * t.inv_jac)

    def test_topography_is_not_cached(self, prim_setup):
        """``phis`` is the caller's array: an in-place edit between two
        RHS evaluations must reach the fused path (it used to read a
        cached level-expanded copy), and evaluating with any number of
        distinct ``phis`` arrays leaves the bundle's cache as it was."""
        _, geom, state = prim_setup
        fz, b = homme_execution("fused"), homme_execution("batched")
        f = geom.tensors.fused()
        phis = 100.0 * np.random.default_rng(5).random(
            (geom.nelem, geom.np, geom.np))
        fz.compute_rhs(state, geom)  # the mesh's own planes are cached now
        cached = len(f._bcache)
        for scale in (1.0, 50.0):
            phis *= scale
            for got, want in zip(fz.compute_rhs(state, geom, phis),
                                 b.compute_rhs(state, geom, phis)):
                assert rel_err(want, got) <= RTOL
        for _ in range(3):
            fz.compute_rhs(state, geom, phis.copy())
        assert len(f._bcache) == cached


def _planes(bundle):
    return [(f.name, getattr(bundle, f.name))
            for f in dataclasses.fields(bundle)
            if isinstance(getattr(bundle, f.name), np.ndarray)]


def _read_only_arrays(geom):
    """``(name, array)`` of everything a geometry owns or hands out."""
    t = geom.tensors
    f64 = t.fused()
    level_field = np.zeros((geom.nelem, 3, geom.np, geom.np))
    out = [(f"geom.{name}", getattr(geom, name)) for name in (
        "metdet", "met", "metinv_planes", "e_cov_planes", "spheremp",
        "lat", "lon", "fcor", "D", "metinv", "e_cov")]
    out += [(f"tensors.{n}", a) for n, a in _planes(t)]
    out += [(f"fused64.{n}", a) for n, a in _planes(f64)]
    out += [
        ("tensors.bshape(metdet)", t.bshape(t.metdet, level_field)),
        ("fused64.bshape(metdet)", f64.bshape(f64.metdet, level_field)),
        ("fused64.bshape(fcor)", f64.bshape(geom.fcor, level_field)),
    ]
    return out


_READ_ONLY_NAMES = [n for n, _ in _read_only_arrays(
    ElementGeometry(CubedSphereMesh(2, 4)))]


class TestReadOnlyGeometry:
    """Frozen at construction: an edit fails at the edit, so there is no
    stale derived plane to detect afterwards."""

    @pytest.mark.parametrize("shard", [None, [3, 1, 7]], ids=["whole", "shard"])
    @pytest.mark.parametrize("name", _READ_ONLY_NAMES)
    def test_in_place_write_raises(self, mesh4, name, shard):
        arr = dict(_read_only_arrays(ElementGeometry(mesh4, shard)))[name]
        assert not arr.flags.writeable
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.add(arr, 1, out=arr)
        assert np.array_equal(arr, before)

    @pytest.mark.parametrize("attr", ["metinv", "e_cov"])
    def test_packed_views_cannot_be_rebound(self, mesh4, attr):
        geom = ElementGeometry(mesh4)
        with pytest.raises(AttributeError):
            setattr(geom, attr, getattr(mesh4, attr).copy())

    def test_building_a_geometry_flips_no_flag_of_the_mesh(self):
        """The geometry freezes its own copies (and a view of ``deriv``,
        which ``gll.derivative_matrix`` already hands out read-only)."""
        mesh = CubedSphereMesh(2, 4)
        names = ("deriv", "metdet", "met", "metinv", "e_cov", "spheremp",
                 "lat", "lon")
        before = {n: getattr(mesh, n).flags.writeable for n in names}
        geom = ElementGeometry(mesh)
        geom.tensors.fused()
        assert {n: getattr(mesh, n).flags.writeable for n in names} == before
        assert all(before[n] for n in names if n != "deriv")
        assert np.shares_memory(geom.D, mesh.deriv)
        assert not np.shares_memory(geom.metdet, mesh.metdet)


class TestFusedPath:
    """The fused contraction path: 1e-12 against batched everywhere."""

    @given(case=kernel_cases())
    @settings(max_examples=100, deadline=None)
    def test_fused_kernels_match_batched(self, case):
        errs = disagreements(case)
        assert max(errs.values()) <= RTOL, errs

    def test_fused_kernels_with_topography(self, prim_setup):
        _, geom, state = prim_setup
        errs = disagreements_on(state, geom, random_phis(geom, 7))
        assert max(errs.values()) <= RTOL, errs

    @pytest.mark.parametrize("mutant", [swapped_wk, nudged_imdj],
                             ids=lambda m: m.__name__)
    def test_the_property_catches_a_mutant(self, mutant):
        with mock.patch.object(OperatorTensors, "fused", mutant):
            find(kernel_cases(), lambda c: max(disagreements(c).values()) > RTOL,
                 settings=settings(max_examples=20, derandomize=True,
                                   database=None, phases=[Phase.generate]))

    @pytest.mark.parametrize("init", [williamson2_initial, rossby_haurwitz_initial])
    def test_fused_sw_rhs(self, mesh4, init):
        geom = ElementGeometry(mesh4)
        s = init(mesh4)
        b = homme_execution("batched")
        fz = homme_execution("fused")
        dh_b, dv_b = b.sw_rhs(s.h, s.v, geom)
        dh_f, dv_f = fz.sw_rhs(s.h, s.v, geom)
        assert rel_err(dh_b, dh_f) <= RTOL
        assert rel_err(dv_b, dv_f) <= RTOL

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("phase", ["rk_stage", "euler", "hypervis"])
    def test_recipe_phase_fused_matches_batched(self, mesh4, prim_setup,
                                                phase, seed):
        """Each step phase the models run — an RK stage, the euler phase,
        the hyperviscosity phase — on the one-shard layout from seeded
        states: the two kernel sets agree in float64 to 1e-12."""
        cfg, geom, _ = prim_setup
        state = seeded_state(geom, cfg, seed)
        outs = []
        for path in ("batched", "fused"):
            model = PrimitiveEquationModel(cfg, mesh4, init=state, dt=300.0,
                                           exec_path=path)
            s = model.states
            if phase == "rk_stage":
                s = timestep.compute_and_apply_rhs(model, s, s, model.dt, stage=1)
            elif phase == "euler":
                timestep.euler_step_subcycled(model, s)
            else:
                timestep.advance_hypervis(model, s)
            model.states = s
            outs.append(model.state)
        for f in ("v", "T", "dp3d", "qdp"):
            assert rel_err(getattr(outs[0], f), getattr(outs[1], f)) <= RTOL, f

    @pytest.mark.parametrize("ne", [4, 8])
    def test_fused_sw_trajectories_agree(self, mesh4, ne):
        mesh = mesh4 if ne == 4 else CubedSphereMesh(8, 4)
        steps = 3 if ne == 4 else 2
        mb = ShallowWaterModel(mesh, exec_path="batched", nu=1e14)
        mf = ShallowWaterModel(mesh, exec_path="fused", nu=1e14)
        for _ in range(steps):
            mb.step()
            mf.step()
        assert rel_err(mb.state.h, mf.state.h) <= RTOL
        assert rel_err(mb.state.v, mf.state.v) <= RTOL

    def test_fused_prim_trajectories_agree(self, mesh4, prim_setup):
        cfg, _, state = prim_setup
        mb = PrimitiveEquationModel(
            cfg, mesh=mesh4, init=state.copy(), dt=300.0, exec_path="batched"
        )
        mf = PrimitiveEquationModel(
            cfg, mesh=mesh4, init=state.copy(), dt=300.0, exec_path="fused"
        )
        mb.run_steps(2)
        mf.run_steps(2)
        assert rel_err(mb.state.T, mf.state.T) <= RTOL
        assert rel_err(mb.state.v, mf.state.v) <= RTOL
        assert rel_err(mb.state.dp3d, mf.state.dp3d) <= RTOL
        assert rel_err(mb.state.qdp, mf.state.qdp) <= RTOL
