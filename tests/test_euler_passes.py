"""The tracer step runs no pass whose result is already known, and keeps
every bit (:mod:`repro.homme.euler`'s identity rule).

Each production function is held to its plain whole-stack expression in
``tests/euler_oracle.py`` byte for byte — compared as ``uint64`` words,
since ``array_equal`` takes -0.0 for +0.0 — on stacks that mix
positives, signed zeros, negatives, subnormals, infinities and NaN.  The
limiter property is mutation-checked: a rule that tests ``qdp < 0``
instead of the sign bit misses -0.0 (``np.maximum(-0.0, 0.0)`` is +0.0)
and must fail it.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from repro.backends.functional_exec import EXECUTION_PATHS, homme_execution
from repro.homme import euler
from repro.homme.element import ElementGeometry
from repro.mesh import CubedSphereMesh
from repro.parallel import dycore

from . import euler_oracle as oracle

GEOM = ElementGeometry(CubedSphereMesh(ne=2))
NP = GEOM.spheremp.shape[-1]
#: Values the identity rule turns on: signed zeros, the smallest
#: subnormals, a negative, infinities and NaN.
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, -1.0, np.inf, -np.inf, np.nan)


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def tracer_stacks(draw, finite=False):
    """An (E, Q, L, n, n) stack on the ne2 mesh whose element-levels are
    positive, all +0.0, or either with drawn values sprinkled in —
    ``finite``: values within ±1e6, so no sum or product makes a NaN,
    whose sign bit IEEE arithmetic leaves unspecified."""
    q, nlev = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.floats(-1e6, 1e6) if finite else st.floats()
    specials = [x for x in SPECIALS if np.isfinite(x) or not finite]
    palette = np.array(draw(st.lists(st.sampled_from(specials) | values,
                                     min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (GEOM.nelem, q, nlev, NP, NP)
    qdp = rng.random(shape) * 10.0 ** rng.integers(-8, 3, shape[:3])[..., None, None]
    kind = rng.integers(0, 4, shape[:3])  # positive, +0.0, sprinkled, +0.0 sprinkled
    qdp[kind % 2 == 1] = 0.0
    if draw(st.booleans()):
        qdp[:, 0, 0] = 0.0  # a row all +0.0, as Kessler's cloud and rain
    spots = (kind >= 2)[..., None, None] & (rng.random(shape) < 0.3)
    qdp[spots] = rng.choice(palette, int(spots.sum()))
    return qdp


@st.composite
def limiter_cases(draw):
    """``(qdp, geom)``: a tracer stack, sometimes its first tracer's
    (E, L, n, n) strided view, over the mesh's weights or the same below
    1, where a positive subnormal's product rounds to zero."""
    qdp = draw(tracer_stacks())
    if draw(st.booleans()):
        qdp = qdp[:, 0]
    w = GEOM.spheremp * draw(st.sampled_from([1.0, 1e-14]))
    return qdp, SimpleNamespace(spheremp=w)


def limits_like_the_oracle(case) -> bool:
    qdp, geom = case
    with np.errstate(all="ignore"):
        got, want = euler.limit_local(qdp, geom), oracle.limit_local(qdp, geom)
    return all(map(same_bytes, got, want))


def needs_by_comparison(qdp, before, geom):
    """The identity rule's mutant: ``qdp < 0`` in place of the sign bit."""
    needs = ~np.isfinite(before) | (qdp < 0).any(axis=(-2, -1))
    blank = ~needs & (before == 0)
    if geom.spheremp.min() < 1.0 and blank.any():
        needs[blank] = qdp[blank].any(axis=(-2, -1))
    return needs


class TestLimiter:
    @given(case=limiter_cases())
    @settings(max_examples=200, deadline=None)
    def test_the_limiter_returns_the_three_pass_limiters_bytes(self, case):
        assert limits_like_the_oracle(case)

    def test_the_property_catches_a_rule_blind_to_negative_zero(self):
        with mock.patch.object(euler, "_needs_limiting", needs_by_comparison):
            qdp, _ = find(limiter_cases(), lambda c: not limits_like_the_oracle(c),
                          settings=settings(max_examples=2000, derandomize=True,
                                            database=None))
        assert np.signbit(qdp[qdp == 0]).any()  # a -0.0 was left unclipped

    def test_a_stack_with_zero_levels_takes_the_identity_path(self, monkeypatch):
        """Kessler-like exact zeros next to positive tracers: one mass,
        one sign check, and the stack itself comes back."""
        qdp = np.random.default_rng(0).random((GEOM.nelem, 3, 2, NP, NP))
        qdp[:, 1:] = 0.0
        calls = []
        mass = euler.element_mass
        monkeypatch.setattr(euler, "element_mass",
                            lambda *a: calls.append(a) or mass(*a))
        limited, masses = dycore.prim_limit_post(GEOM, {}, qdp)
        assert limited is qdp and len(calls) == 1
        assert np.array_equal(masses[:, 0], masses[:, 1])
        assert same_bytes(masses[:, 0], mass(qdp, GEOM))

    def test_only_the_element_levels_that_need_it_are_limited(self, monkeypatch):
        qdp = np.random.default_rng(1).random((GEOM.nelem, 2, 2, NP, NP))
        qdp[3, 1, 0, 2, 2] = -0.0
        seen = []
        ws = euler.weighted_sum
        monkeypatch.setattr(euler, "weighted_sum",
                            lambda x, w: seen.append(x.shape) or ws(x, w))
        limited, _, _ = euler.limit_local(qdp, GEOM)
        assert seen[1:] == [(1, NP, NP)] * 2  # after the whole stack's mass
        assert not np.signbit(limited).any() and limited[3, 1, 0, 2, 2] == 0.0


@st.composite
def fixer_cases(draw):
    """``(limited, scale)``: a finite stack and a (Q, L) scale of 1.0,
    ±0.0 and other factors."""
    limited = draw(tracer_stacks(finite=True))
    factors = st.sampled_from([1.0, 1.0, 0.0, -0.0]) | st.floats(
        allow_nan=False, allow_infinity=False)
    scale = np.array(draw(st.lists(factors, min_size=limited[0, ..., 0, 0].size,
                                   max_size=limited[0, ..., 0, 0].size)))
    return limited, scale.reshape(limited.shape[1:3])


class TestFixerAndStages:
    @given(case=fixer_cases())
    @settings(max_examples=150, deadline=None)
    def test_the_fixer_multiply_is_the_product(self, case):
        limited, scale = case
        with np.errstate(all="ignore"):
            got = euler.fixer_multiply(limited, scale)
            assert same_bytes(got, oracle.fixer_multiply(limited, scale))

    def test_an_identity_scale_skips_the_multiply(self):
        limited = np.random.default_rng(2).random((GEOM.nelem, 2, 2, NP, NP))
        limited[:, 1, 0] = 0.0
        scale = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert euler.fixer_multiply(limited, scale) is limited
        scale[1, 1] = 0.0  # a zero factor on a row with mass
        assert euler.fixer_multiply(limited, scale) is not limited

    @pytest.mark.parametrize("path", sorted(EXECUTION_PATHS))
    @given(qdp=tracer_stacks(finite=True), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(-1e4, 1e4))
    @settings(max_examples=40, deadline=None)
    def test_in_place_stages_equal_the_old_expressions(self, path, qdp, seed, dt):
        """Stage 1 and stage 2 in place on the fresh divergence, its sign
        in ``-dt``, equal ``qdp + dt L(qdp)`` and ``(qdp + s1 + dt
        L(s1)) / 2`` with ``L = -div``, signed zeros included."""
        rng = np.random.default_rng(seed)
        E, _, nlev = qdp.shape[:3]
        v = rng.standard_normal((E, nlev, NP, NP, 2))
        v[rng.random(E) < 0.3] = 0.0  # a zero flux: the divergence is ±0.0
        s1 = np.where(rng.random(qdp.shape) < 0.2, -0.0, rng.standard_normal(qdp.shape))
        div = homme_execution(path).tracer_tendency(v, GEOM)

        def adv(q):
            return -div(q)

        with np.errstate(all="ignore"):
            assert same_bytes(euler.ssp_stage1(qdp, div, dt),
                              oracle.ssp_stage1(qdp, adv, dt))
            assert same_bytes(euler.ssp_stage2(qdp, s1, div, dt),
                              oracle.ssp_stage2(qdp, s1, adv, dt))
